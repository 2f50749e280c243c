// Indexed 4-ary min-heap of pending simulator events.
//
// The heap array holds only each event's order key — (at, seq) and the
// index of the slot holding its payload — so a sift moves 24-byte records
// and never touches a payload. Payloads sit in a slot array whose freed
// slots are recycled; each slot records its event's heap position (so
// cancel removes from the middle in O(log n)) and a generation bumped
// whenever the slot is freed. A handle is the slot index plus the
// generation it was issued under, so a handle of an event that fired or
// was cancelled no longer matches its slot: no id map is needed to tell
// live handles from stale ones.
//
// Ordering contract (load-bearing for determinism): pops return events in
// exactly ascending (at, seq) order, whatever the push, cancel and pop
// interleaving. The engine's seq is unique per event, so the order is total.
//
// Cancel and pop free the slot at once: a non-trivially-destructible payload
// (a closure) is destroyed eagerly, and size() counts live events only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace acp::sim {

template <typename Payload>
class EventHeap {
 public:
  /// Slot index in the low 32 bits, generation (never 0) in the high 32;
  /// 0 is never a handle.
  using Handle = std::uint64_t;

  struct Entry {
    double at = 0.0;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  Handle push(double at, std::uint64_t seq, Payload payload) {
    std::uint32_t s = 0;
    if (free_.empty()) {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      s = free_.back();
      free_.pop_back();
    }
    slots_[s].payload = std::move(payload);
    heap_.push_back(Key{at, seq, s});
    sift_up(heap_.size() - 1);
    return (static_cast<Handle>(slots_[s].generation) << 32) | s;
  }

  /// The payload of the pending event `h` names; nullptr when `h` is 0,
  /// already fired or cancelled, or was never issued.
  const Payload* find(Handle h) const {
    const auto s = static_cast<std::uint32_t>(h);
    if (s >= slots_.size()) return nullptr;
    const Slot& slot = slots_[s];
    if (slot.pos == kFree || slot.generation != static_cast<std::uint32_t>(h >> 32)) {
      return nullptr;
    }
    return &slot.payload;
  }

  /// Removes the pending event `h` names and destroys its payload; false
  /// (and no effect) when find(h) is nullptr.
  bool cancel(Handle h) {
    if (find(h) == nullptr) return false;
    const auto s = static_cast<std::uint32_t>(h);
    remove_at(slots_[s].pos);
    release(s);
    return true;
  }

  /// The (at, seq) minimum without removing it; false when empty.
  bool peek(double& at, std::uint64_t& seq) const {
    if (heap_.empty()) return false;
    at = heap_.front().at;
    seq = heap_.front().seq;
    return true;
  }

  /// Pops the (at, seq) minimum into `out`; false when empty.
  bool pop_min(Entry& out) {
    if (heap_.empty()) return false;
    take(out);
    return true;
  }

  /// Pops the minimum only if its timestamp is <= `bound`.
  bool pop_if_le(double bound, Entry& out) {
    if (heap_.empty() || heap_.front().at > bound) return false;
    take(out);
    return true;
  }

 private:
  static constexpr std::uint32_t kFree = UINT32_MAX;
  static constexpr std::size_t kArity = 4;

  struct Key {
    double at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    Payload payload{};
    std::uint32_t pos = kFree;     ///< index in heap_; kFree when the slot is free
    std::uint32_t generation = 1;  ///< issued in this slot's next handle
  };

  static bool before(const Key& a, const Key& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  void place(std::size_t i, const Key& k) {
    heap_[i] = k;
    slots_[k.slot].pos = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i) {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, k);
  }

  void sift_down(std::size_t i) {
    const Key k = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t last = std::min(first + kArity, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], k)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, k);
  }

  /// Removes heap_[i], refilling the hole with the last key.
  void remove_at(std::size_t i) {
    const Key last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    place(i, last);
    if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  void take(Entry& out) {
    const Key top = heap_.front();
    out.at = top.at;
    out.seq = top.seq;
    out.payload = std::move(slots_[top.slot].payload);
    remove_at(0);
    release(top.slot);
  }

  /// Destroys the slot's payload and recycles the slot under a new
  /// generation, which stales every handle issued for it.
  void release(std::uint32_t s) {
    Slot& slot = slots_[s];
    if constexpr (!std::is_trivially_destructible_v<Payload>) slot.payload = Payload{};
    slot.pos = kFree;
    if (++slot.generation == 0) slot.generation = 1;
    free_.push_back(s);
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace acp::sim
