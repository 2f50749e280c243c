// Sharded discrete-event engine: conservative time-window PDES.
//
// A sharded run partitions the event population into streams (sim/shard.h):
// stream 0 — the *global lane* — is a plain sim::Engine carrying everything
// that reads or mutates shared world state (request arrivals, state
// publishes, faults, migration, repair, session teardown, samplers), and
// every probe cascade gets a private stream pinned by hashed deputy
// ownership to one of N shard lanes, each a sim::EventHeap of closures
// ordered by (at, order key). The coordinator (the thread that calls
// run_until) drains lane 0 itself; lanes 1..N−1 each have a dedicated
// worker thread, so N lanes cost N − 1 threads and `--shards 1` starts
// none.
//
// Synchronization is a fixed time-window barrier, not null messages. Why:
// on the XL torus the minimum virtual-link delay (the classic conservative
// lookahead bound) is 1 ms, while fig7_xl's mean inter-event gap is ~26 ms
// of sim time — null-message lookahead would admit ~0.04 events per
// synchronization round and the run would be all barrier, no work. The
// window instead exploits a structural property of the workload: probe
// cascades of *different requests* never interact directly — all coupling
// flows through shared pools/registries — so the engine freezes shared
// state for a window of `window_s` sim-seconds, runs every lane's events in
// that window concurrently against the frozen view, and applies the
// lanes' deferred mutations ("ops") in deterministic (at, key, push-order)
// order at the barrier, interleaved with the global lane's own events. The
// cost is bounded staleness — a cascade may read pool state up to one
// window older than a serial run would — which the experiment layer bounds
// well below the probe timeout and, critically, applies *identically for
// every shard count*: the window grid is fixed, so observables are a
// function of the grid, never of N. `window_s` is clamped to at least the
// conservative lookahead (min virtual-link delay) by the caller; in
// practice it is set 3–4 orders of magnitude larger.
//
// Determinism: each lane pops in exact (at, key) order; keys are
// stream-major (shard.h), streams are request-derived, ops sort by the
// pushing event's key. Every observable row is tagged with RowKey
// (obs/shard_capture.h) via next_row_key() and merge-sorted at end of run,
// so traces, metrics, timelines, and attribution are byte-identical for
// any `--shards N` — the same guarantee the parallel trial runner gives
// across `--jobs`.
//
// Phase profile (set_phase_profiler): per window, each lane's drain time
// (sim.lane_drain) and the slowest of them (sim.window_slowest_lane), the
// coordinator's wait for the workers after lane 0 (sim.barrier_wait, N ≥ 2)
// and the op sort plus apply phase (sim.apply). All four are recorded on
// the coordinator; detached, the engine reads no clock.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "obs/shard_capture.h"
#include "sim/barrier.h"
#include "sim/engine.h"
#include "sim/event_heap.h"
#include "sim/shard.h"

namespace acp::sim {

class ShardedEngine : public ShardHost {
 public:
  struct Config {
    std::size_t shards = 1;
    /// Barrier window in sim seconds. Larger windows expose more
    /// cross-request parallelism (every request arriving within one window
    /// probes concurrently) at the price of staler shared state; must be
    /// >= the conservative lookahead and should stay well below transient
    /// TTLs and probe timeouts.
    double window_s = 4.0;
  };

  explicit ShardedEngine(const Config& config);
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// The global lane. Everything pre-existing (state managers, fault
  /// injector, workload arrivals, samplers) schedules here unchanged.
  Engine& global() { return global_; }
  const Engine& global() const { return global_; }

  std::size_t shards() const { return lanes_.size(); }
  double window_s() const { return window_s_; }
  const ShardPlan& plan() const { return plan_; }

  // ---- ShardHost -----------------------------------------------------
  double now() const override;
  void open_stream(std::uint32_t stream, std::uint64_t owner_key) override;
  std::uint64_t schedule_stream(std::uint32_t stream, double at, std::function<void()> cb,
                                const char* tag) override;
  bool cancel_stream(std::uint32_t stream, std::uint64_t id) override;
  void push_op(std::function<void()> fn) override;

  /// Mirrors lane activity into a lane-private registry/attribution
  /// (ShardCapture): events-executed counter plus per-tag queue waits.
  /// Lanes never touch the global queue-depth gauge — that stays a
  /// global-lane observable so gauge min/max are shard-count-invariant.
  void set_lane_obs(std::size_t shard, obs::MetricsRegistry* registry, obs::Attribution* attr);

  /// Records the window phases as wall-clock profiler scopes in `registry`
  /// (see the header comment); nullptr detaches. Call between runs.
  void set_phase_profiler(obs::MetricsRegistry* registry);

  /// Runs the window loop until simulated time `until`: repeatedly opens
  /// the next non-empty window, drains all lanes concurrently (lane 0 on
  /// the calling thread), then applies deferred ops interleaved with
  /// global-lane events in timestamp order. Returns the number of events
  /// fired (all lanes + global). An exception thrown by any lane's event
  /// propagates once every lane has finished the window, lowest lane first.
  std::uint64_t run_until(double until);

  /// Totals across the global lane and all shard lanes. Only meaningful
  /// from the coordinator while workers are idle (apply phase / between
  /// runs) — exactly where samplers run.
  std::uint64_t total_events_fired() const;
  std::size_t total_pending() const;

  /// Ordering key for the observable row being emitted right now on this
  /// thread: a lane drain (a worker, or the coordinator on lane 0) stamps
  /// its executing event's (at, key) plus a row ordinal; the coordinator
  /// otherwise stamps the current op's key during op
  /// application, else the global clock with a monotone ordinal (stream 0
  /// sorts before every shard stream at equal timestamps, matching
  /// "global events first" apply order). Wired as ShardCapture's key_fn.
  obs::RowKey next_row_key();

 private:
  struct LanePending {
    std::function<void()> cb;
    double enqueued_at = 0.0;
    const char* tag = nullptr;
  };

  struct Op {
    double at = 0.0;
    std::uint64_t key = 0;       ///< pushing event's order key
    std::uint32_t push_ord = 0;  ///< index among the pushing event's ops
    std::function<void()> fn;
  };

  struct Lane {
    EventHeap<LanePending> queue;
    std::uint64_t fired = 0;
    std::vector<Op> ops;  ///< written by the worker in shard phase, drained at the barrier
    obs::Counter* events_metric = nullptr;
    obs::Attribution* attr = nullptr;
    std::exception_ptr error;
    double drain_s = 0.0;  ///< last window's drain wall time (phase profile only)
  };

  struct StreamInfo {
    std::uint32_t shard = 0;
    std::uint64_t next_local_seq = 0;
    bool open = false;
  };

  /// Thread-local execution context: which lane this thread drains and the
  /// (at, key) of the event it is firing. The coordinator sets it to lane 0
  /// for its own drain and otherwise keeps in_worker=false, reading the
  /// global clock instead.
  struct WorkerCtx {
    bool in_worker = false;
    std::size_t lane = 0;
    double now = 0.0;
    std::uint64_t key = 0;
    std::uint64_t row_ord = 0;
    std::uint32_t op_ord = 0;
  };
  static thread_local WorkerCtx tl_;

  void start_workers();
  void worker_main(std::size_t lane_index);
  /// Fires `lane`'s events with at <= `end` in (at, key) order; an
  /// exception is stored in lane.error. Runs on the lane's worker, or on
  /// the coordinator for lane 0.
  void drain_lane(Lane& lane, double end);
  /// Observes the window's lane drain times (lane order) and their max.
  void record_lane_drains();
  StreamInfo& stream_info(std::uint32_t stream);

  Engine global_;
  ShardPlan plan_;
  double window_s_;
  double window_end_ = 0.0;  ///< top of the fixed window grid reached so far
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<StreamInfo> streams_;  ///< indexed by stream id
  // Phase profile; null or inert until set_phase_profiler.
  obs::Histogram* lane_drain_wall_ = nullptr;
  obs::Histogram* slowest_lane_wall_ = nullptr;
  obs::ProfSlot barrier_wait_prof_;  ///< stays inert at N = 1
  obs::ProfSlot apply_prof_;
  PhaseBarrier barrier_;
  std::vector<std::thread> workers_;  ///< lanes 1..N−1
  bool workers_started_ = false;

  // Coordinator-side row-key state (single-threaded by construction).
  bool op_active_ = false;
  double op_at_ = 0.0;
  std::uint64_t op_key_ = 0;
  std::uint64_t op_row_base_ = 0;
  std::uint64_t op_row_ord_ = 0;
  std::uint64_t coord_row_ord_ = 0;
};

}  // namespace acp::sim
