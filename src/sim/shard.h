// Shard partitioning and ordering keys for the sharded PDES engine.
//
// A sharded run (sim/sharded_engine.h) partitions the event population into
// *streams*: stream 0 is the global lane (arrivals, state ticks, faults,
// migration, sampling — everything that mutates shared world state) and
// every probe cascade gets its own stream, pinned to the shard that owns the
// cascade's deputy node. Ownership is hashed (ShardPlan), mirroring DIVINE's
// hashed-owner partitioning for deterministic parallel exploration: the
// owner of a node depends only on the node id and the shard count, never on
// load or timing.
//
// Ordering contract: every shard-lane event carries a 64-bit key
// `pack_order_key(stream, local_seq)`. Within a stream, local_seq increases
// in scheduling order, so (at, key) ascending reproduces the serial
// engine's (at, seq) tie-break per stream; across streams, equal-time ties
// order by stream id — a function of the request id, not of the shard
// count. Merged observables sort by (at, key, ordinal) and are therefore
// byte-identical for any `--shards N`.
#pragma once

#include <cstdint>
#include <functional>

#include "util/error.h"

namespace acp::sim {

/// Bits reserved for the per-stream scheduling sequence. A single probe
/// cascade schedules at most a few thousand events (max_probes_per_request
/// plus retries and the timeout), far below 2^26; the global lane's rows
/// use ordinal counters, not local sequences, so it never overflows either.
inline constexpr std::uint32_t kStreamSeqBits = 26;
inline constexpr std::uint64_t kMaxLocalSeq = (std::uint64_t{1} << kStreamSeqBits) - 1;

/// Stream-major ordering key: (stream, local_seq) packed so that integer
/// comparison orders first by stream, then by scheduling order.
inline std::uint64_t pack_order_key(std::uint32_t stream, std::uint64_t local_seq) {
  ACP_ASSERT(local_seq <= kMaxLocalSeq);
  return (static_cast<std::uint64_t>(stream) << kStreamSeqBits) | local_seq;
}

inline std::uint32_t stream_of_key(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> kStreamSeqBits);
}

/// Deterministic hashed ownership: owner(key) depends only on `key` and the
/// shard count. SplitMix64 finalizer (Steele, Lea & Flood 2014) — the same
/// mixer the RNG seeding uses — so adjacent node ids spread uniformly.
class ShardPlan {
 public:
  explicit ShardPlan(std::size_t shards) : shards_(shards) { ACP_REQUIRE(shards >= 1); }

  std::size_t shards() const { return shards_; }

  std::size_t owner(std::uint64_t key) const {
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>((z ^ (z >> 31)) % shards_);
  }

 private:
  std::size_t shards_;
};

/// The services a protocol needs to run its request cascades inside the
/// sharded engine, independent of which concrete engine provides them:
/// per-stream event scheduling on the owning shard's lane, and deferred
/// operations ("ops") that mutate shared state — pushed during the parallel
/// shard phase, applied single-threaded at the next window barrier in
/// deterministic (at, key, push-order) order.
class ShardHost {
 public:
  virtual ~ShardHost() = default;

  /// Current simulated time: the executing event's timestamp during a lane
  /// drain, the global lane's clock otherwise.
  virtual double now() const = 0;

  /// Declares `stream` (>= 1) and pins it to owner(owner_key)'s shard.
  /// Coordinator-phase only (streams are born from global-lane events).
  virtual void open_stream(std::uint32_t stream, std::uint64_t owner_key) = 0;

  /// Schedules `cb` at absolute time `at` on `stream`'s lane. Returns a
  /// handle valid for cancel_stream. Callable from the coordinator (apply
  /// phase) or from the thread draining the stream's lane (shard phase).
  virtual std::uint64_t schedule_stream(std::uint32_t stream, double at,
                                        std::function<void()> cb, const char* tag) = 0;

  /// Cancels a pending stream event; false if it already fired.
  virtual bool cancel_stream(std::uint32_t stream, std::uint64_t id) = 0;

  /// Defers `fn` to the apply phase. Must be called from a lane drain
  /// while it executes a stream event; the op is keyed by that event's
  /// (at, order key) plus its push index, so application order is a pure
  /// function of the event population — never of worker interleaving.
  virtual void push_op(std::function<void()> fn) = 0;
};

}  // namespace acp::sim
