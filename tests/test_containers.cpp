// Property tests for the hot-path containers: the bump arena, the
// open-addressing FlatMap, the SmallVec, and the engine's event heap — each
// driven through randomized operation interleavings against a std::
// reference implementation. The event heap's reference is an ordered set on
// (at, seq), so these tests pin the exact tie-breaking contract that keeps
// sim output byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sim/event_heap.h"
#include "util/arena.h"
#include "util/flat_map.h"
#include "util/rng.h"
#include "util/small_vec.h"

namespace {

using acp::sim::EventHeap;
using acp::util::Arena;
using acp::util::ArenaVector;
using acp::util::FlatMap;
using acp::util::Rng;
using acp::util::SmallVec;

// ---- Arena ------------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  Rng rng(1);
  std::vector<std::pair<char*, std::size_t>> blocks;
  for (int i = 0; i < 500; ++i) {
    const std::size_t bytes = 1 + rng.below(300);
    const std::size_t align = std::size_t{1} << rng.below(5);  // 1..16
    char* p = static_cast<char*>(arena.allocate(bytes, align));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    std::memset(p, static_cast<int>(i & 0xff), bytes);  // must be writable
    blocks.emplace_back(p, bytes);
  }
  // No block overlaps any other.
  std::sort(blocks.begin(), blocks.end());
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_GE(blocks[i].first, blocks[i - 1].first + blocks[i - 1].second);
  }
}

TEST(Arena, ResetReusesMemoryWithoutGrowingReservation) {
  Arena arena;
  for (int i = 0; i < 100; ++i) arena.alloc_array<double>(64);
  const std::size_t reserved_after_warmup = arena.bytes_reserved();
  const std::size_t high_water = arena.high_water_bytes();
  for (int round = 0; round < 50; ++round) {
    arena.reset();
    for (int i = 0; i < 100; ++i) arena.alloc_array<double>(64);
  }
  // Identical allocation pattern after reset: reservation must not grow.
  EXPECT_EQ(arena.bytes_reserved(), reserved_after_warmup);
  EXPECT_EQ(arena.high_water_bytes(), high_water);
}

TEST(ArenaVector, MatchesStdVectorUnderRandomOps) {
  Arena arena;
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    arena.reset();
    ArenaVector<std::uint32_t> v(arena);
    std::vector<std::uint32_t> ref;
    for (int op = 0; op < 1000; ++op) {
      switch (rng.below(4)) {
        case 0:
        case 1: {  // push (biased: growth paths are the interesting ones)
          const auto x = static_cast<std::uint32_t>(rng.below(1u << 30));
          v.push_back(x);
          ref.push_back(x);
          break;
        }
        case 2: {  // truncate to a random smaller size
          if (!ref.empty()) {
            const std::size_t n = rng.below(ref.size() + 1);
            v.truncate(n);
            ref.resize(n);
          }
          break;
        }
        case 3: {  // reserve (must not disturb contents)
          v.reserve(ref.size() + rng.below(64));
          break;
        }
      }
      ASSERT_EQ(v.size(), ref.size());
    }
    for (std::size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(v[i], ref[i]);
  }
}

// ---- FlatMap ----------------------------------------------------------------

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  FlatMap<std::uint64_t, std::uint32_t> m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  Rng rng(3);
  // Sequential-ish keys stress the hash finalizer; erases stress the
  // backward-shift deletion.
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.below(2000);
    switch (rng.below(3)) {
      case 0: {
        const auto val = static_cast<std::uint32_t>(rng.below(1u << 20));
        m.insert_or_assign(key, val);
        ref[key] = val;
        break;
      }
      case 1: {
        EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
      }
      case 2: {
        const auto* found = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  // for_each visits every live entry exactly once.
  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  m.for_each([&](std::uint64_t k, std::uint32_t v) {
    const bool inserted = seen.emplace(k, v).second;
    ASSERT_TRUE(inserted);
  });
  EXPECT_EQ(seen, ref);
}

TEST(FlatMap, ClearEmptiesAndStaysUsable) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 1000; ++i) m.insert_or_assign(i, i * 3);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.contains(17));
  for (std::uint64_t i = 0; i < 100; ++i) m.insert_or_assign(i, i + 1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto* v = m.find(i);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i + 1);
  }
}

// ---- SmallVec ---------------------------------------------------------------

TEST(SmallVec, MatchesStdVectorAcrossInlineHeapBoundary) {
  Rng rng(4);
  for (int round = 0; round < 200; ++round) {
    SmallVec<std::uint32_t, 8> v;
    std::vector<std::uint32_t> ref;
    const std::size_t n = rng.below(40);  // straddles the inline capacity 8
    for (std::size_t i = 0; i < n; ++i) {
      const auto x = static_cast<std::uint32_t>(rng.below(1000));
      v.push_back(x);
      ref.push_back(x);
    }
    ASSERT_EQ(v.size(), ref.size());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(v[i], ref[i]);

    // Copy and move preserve contents and equality.
    SmallVec<std::uint32_t, 8> copy = v;
    EXPECT_TRUE(copy == v);
    SmallVec<std::uint32_t, 8> moved = std::move(copy);
    ASSERT_EQ(moved.size(), ref.size());
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(moved[i], ref[i]);
  }
}

// ---- EventHeap vs a reference model -----------------------------------------

// Reference: an ordered set on (at, seq) plus a payload map by handle — the
// contract the engine's determinism depends on, with no heap in it.
class HeapReference {
 public:
  void push(double at, std::uint64_t seq, std::uint64_t handle, int payload) {
    order_.insert({at, seq, handle});
    live_.emplace(handle, Live{at, seq, payload});
  }
  bool cancel(std::uint64_t handle) {
    const auto it = live_.find(handle);
    if (it == live_.end()) return false;
    order_.erase({it->second.at, it->second.seq, handle});
    live_.erase(it);
    return true;
  }
  std::size_t size() const { return live_.size(); }
  bool live(std::uint64_t handle) const { return live_.count(handle) > 0; }

  /// The minimum (at, seq, handle) and its payload; false when empty or,
  /// bounded, when the minimum lies past `bound`.
  bool pop(bool bounded, double bound, std::tuple<double, std::uint64_t, std::uint64_t>& key,
           int& payload) {
    if (order_.empty()) return false;
    if (bounded && std::get<0>(*order_.begin()) > bound) return false;
    key = *order_.begin();
    order_.erase(order_.begin());
    payload = live_.at(std::get<2>(key)).payload;
    live_.erase(std::get<2>(key));
    return true;
  }
  bool peek(double& at, std::uint64_t& seq) const {
    if (order_.empty()) return false;
    at = std::get<0>(*order_.begin());
    seq = std::get<1>(*order_.begin());
    return true;
  }

 private:
  struct Live {
    double at;
    std::uint64_t seq;
    int payload;
  };
  std::set<std::tuple<double, std::uint64_t, std::uint64_t>> order_;
  std::map<std::uint64_t, Live> live_;
};

// One seeded interleaving: pushes (clustered mode draws from few distinct
// times, so most timestamps tie; some land before the last pop), cancels
// of live, fired, cancelled and never-issued handles, peeks, and bounded
// and unbounded pops. The heap must reproduce the reference's pop
// sequence exactly.
void run_interleaving(std::uint64_t seed, bool clustered) {
  EventHeap<int> q;
  HeapReference ref;
  Rng rng(seed);
  std::uint64_t next_seq = 0;
  std::vector<std::uint64_t> issued;  // every handle ever returned
  double now = 0.0;
  int next_payload = 0;

  const auto check_pop = [&](bool bounded, double bound) {
    EventHeap<int>::Entry got;
    std::tuple<double, std::uint64_t, std::uint64_t> want;
    int want_payload = 0;
    const bool has = ref.pop(bounded, bound, want, want_payload);
    ASSERT_EQ(bounded ? q.pop_if_le(bound, got) : q.pop_min(got), has);
    if (!has) return;
    ASSERT_EQ(got.at, std::get<0>(want));
    ASSERT_EQ(got.seq, std::get<1>(want));
    ASSERT_EQ(got.payload, want_payload);
    ASSERT_EQ(q.find(std::get<2>(want)), nullptr);  // fired: its handle went stale
    now = got.at;
  };

  for (int op = 0; op < 6000; ++op) {
    const std::size_t roll = rng.below(20);
    if (roll < 9) {
      const double at = clustered ? now + static_cast<double>(rng.below(4)) - 1.0
                                  : now + rng.uniform(-5.0, 1000.0);
      const int payload = next_payload++;
      const std::uint64_t h = q.push(at, next_seq, payload);
      ASSERT_NE(h, 0u);
      ASSERT_FALSE(ref.live(h));  // a live handle is never issued twice
      ref.push(at, next_seq, h, payload);
      ++next_seq;
      issued.push_back(h);
    } else if (roll < 13) {
      // Any handle ever issued: live, fired, cancelled, or reissued slot.
      if (!issued.empty()) {
        const std::uint64_t h = issued[rng.below(issued.size())];
        ASSERT_EQ(q.find(h) != nullptr, ref.live(h));
        ASSERT_EQ(q.cancel(h), ref.cancel(h));
      }
      ASSERT_FALSE(q.cancel(0));
      ASSERT_FALSE(q.cancel((std::uint64_t{1} << 32) | 0xfffffff0u));  // never issued
    } else if (roll < 14) {
      double at = 0.0, want_at = 0.0;
      std::uint64_t seq = 0, want_seq = 0;
      const std::size_t before = q.size();
      ASSERT_EQ(q.peek(at, seq), ref.peek(want_at, want_seq));
      if (before > 0) {
        ASSERT_EQ(at, want_at);
        ASSERT_EQ(seq, want_seq);
      }
      ASSERT_EQ(q.size(), before);
    } else if (roll < 17) {
      check_pop(false, 0.0);
    } else {
      check_pop(true, now + rng.uniform(-1.0, 10.0));
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.size() == 0);
  }

  while (ref.size() > 0) {
    check_pop(false, 0.0);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EventHeap<int>::Entry got;
  ASSERT_FALSE(q.pop_min(got));
  ASSERT_EQ(q.size(), 0u);
}

TEST(EventHeap, MatchesReferenceSpreadTimes) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) run_interleaving(seed, /*clustered=*/false);
}

TEST(EventHeap, MatchesReferenceClusteredTies) {
  for (std::uint64_t seed = 20; seed < 26; ++seed) run_interleaving(seed, /*clustered=*/true);
}

TEST(EventHeap, CancelTopMiddleFiredAndReusedHandles) {
  EventHeap<int> q;
  std::vector<std::uint64_t> h;
  for (int i = 0; i < 9; ++i) h.push_back(q.push(static_cast<double>(i), i, i));
  EXPECT_TRUE(q.cancel(h[0]));  // the top
  EXPECT_TRUE(q.cancel(h[4]));  // a middle entry
  EventHeap<int>::Entry e;
  ASSERT_TRUE(q.pop_min(e));
  EXPECT_EQ(e.payload, 1);
  EXPECT_FALSE(q.cancel(h[1]));  // already fired
  EXPECT_FALSE(q.cancel(h[0]));  // already cancelled
  // h[0]'s, h[4]'s and h[1]'s slots are reused; their old handles stay stale.
  const std::uint64_t a = q.push(2.5, 100, 100);
  const std::uint64_t b = q.push(3.5, 101, 101);
  const std::uint64_t c = q.push(4.5, 102, 102);
  for (const std::uint64_t stale : {h[0], h[1], h[4]}) {
    EXPECT_EQ(q.find(stale), nullptr);
    EXPECT_FALSE(q.cancel(stale));
  }
  EXPECT_EQ(q.size(), 9u);
  EXPECT_TRUE(q.cancel(b));
  std::vector<int> order;
  while (q.pop_min(e)) order.push_back(e.payload);
  EXPECT_EQ(order, (std::vector<int>{2, 100, 3, 102, 5, 6, 7, 8}));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_FALSE(q.cancel(c));
}

TEST(EventHeap, CancelAndPopDestroyPayloadsEagerly) {
  // Each payload counts itself alive; the heap may hold no payload it has
  // cancelled or popped.
  struct Counted {
    explicit Counted(int* live) : live_(live) { ++*live_; }
    ~Counted() { --*live_; }
    Counted(const Counted&) = delete;
    Counted& operator=(const Counted&) = delete;
    int* live_;
  };
  int live = 0;
  EventHeap<std::unique_ptr<Counted>> q;
  Rng rng(77);
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < 2000; ++i) {
    handles.push_back(q.push(rng.uniform(0.0, 100.0), static_cast<std::uint64_t>(i),
                             std::make_unique<Counted>(&live)));
  }
  ASSERT_EQ(live, 2000);
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    ASSERT_TRUE(q.cancel(handles[i]));
    ASSERT_EQ(static_cast<std::size_t>(live), q.size());  // destroyed at once
  }
  EventHeap<std::unique_ptr<Counted>>::Entry e;
  while (q.pop_min(e)) {
    ASSERT_EQ(static_cast<std::size_t>(live), q.size() + 1);  // only `e` holds it
    e.payload.reset();
  }
  EXPECT_EQ(live, 0);
}

TEST(EventHeap, PushIntoPastStillOrdersCorrectly) {
  // A push at an earlier time than the last pop must still come out first
  // (the engine never does this, but the heap's contract does not depend
  // on it).
  EventHeap<int> q;
  EventHeap<int>::Entry e;
  q.push(100.0, 0, 0);
  ASSERT_TRUE(q.pop_min(e));
  q.push(50.0, 1, 1);
  q.push(200.0, 2, 2);
  ASSERT_TRUE(q.pop_min(e));
  EXPECT_EQ(e.payload, 1);
  ASSERT_TRUE(q.pop_min(e));
  EXPECT_EQ(e.payload, 2);
}

}  // namespace
