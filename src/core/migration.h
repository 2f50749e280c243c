// Dynamic component placement / migration (paper Sec. 6, future work item
// 3: "integrating dynamic component placement (or migration) with the
// component composition system").
//
// A background manager periodically scans node utilization and moves
// components off congested nodes onto lightly loaded ones. Running sessions
// are untouched (they keep their node allocations until teardown, matching
// paper footnote 1 — composition always operates on the *current*
// placement); the benefit accrues to future compositions, which find
// candidates where capacity actually is. `bench/ablation_migration`
// measures the success-rate gain under skewed load.
#pragma once

#include "fault/fault.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "stream/session.h"
#include "stream/system.h"

namespace acp::core {

struct MigrationConfig {
  double interval_s = 120.0;  ///< scan period
  /// A node is congested when committed load on its worst dimension exceeds
  /// this fraction of capacity.
  double utilization_threshold = 0.75;
  /// Only nodes below this utilization receive migrated components.
  double target_headroom = 0.40;
  std::size_t max_moves_per_round = 4;
};

class MigrationManager {
 public:
  /// Moves count into `counters` (acp.migration.moves) whether or not
  /// observability is attached. `obs`, when non-null, receives a
  /// `component_migrated` trace span and a migrate attribution row per move.
  MigrationManager(stream::StreamSystem& sys, sim::Engine& engine, obs::MetricsRegistry& counters,
                   MigrationConfig config = {}, obs::Observability* obs = nullptr);

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  /// Schedules the periodic scan.
  void start();

  /// Utilization of `node` at `now`: max over resource dimensions of
  /// 1 − available/capacity. Exposed for tests and benches.
  double utilization(stream::NodeId node, double now) const;

  /// One scan round: moves up to max_moves_per_round components from
  /// congested nodes to lightly loaded ones. Returns the number of moves.
  /// Exposed for tests; normally driven by the periodic tick.
  std::size_t run_round();

  std::uint64_t total_moves() const { return total_moves_; }
  const MigrationConfig& config() const { return config_; }

 private:
  void schedule_tick();

  stream::StreamSystem* sys_;
  sim::Engine* engine_;
  obs::CounterHandle moves_metric_;
  MigrationConfig config_;
  obs::Observability* obs_;
  std::uint64_t total_moves_ = 0;
  bool started_ = false;
};

struct RepairConfig {
  /// Crash → repair scan delay, modelling failure-detection latency (the
  /// session layer notices the dead node via missed heartbeats, not
  /// instantly).
  double detection_delay_s = 5.0;
  /// Replacement components examined per broken placement (lowest-utilization
  /// hosts first). 0 = detection-only: broken sessions are found and closed
  /// (counted lost) but never repaired — the chaos suite's no-recovery arm,
  /// where detection stays on as the measurement device.
  std::size_t max_candidates = 8;
};

/// Session failure detection and repair — the migration path applied to
/// running sessions. When a node crashes, every live session with a
/// component placed there is broken; after detection_delay_s the manager
/// rebinds each broken function node to an alternative component on a live
/// node (releasing the dead placement, committing the replacement and its
/// re-routed virtual links). Sessions with no feasible replacement — and
/// non-probed sessions, whose aggregated commit records cannot be split —
/// are closed and counted lost.
class SessionRepairManager {
 public:
  /// Registers for crash notifications on start(). Repaired placements
  /// count into `counters` (acp.recovery.session_repair_moves). All
  /// references must outlive the manager; `obs` may be null.
  SessionRepairManager(stream::StreamSystem& sys, stream::SessionTable& sessions,
                       sim::Engine& engine, obs::MetricsRegistry& counters,
                       fault::FaultInjector& faults, RepairConfig config = {},
                       obs::Observability* obs = nullptr);

  SessionRepairManager(const SessionRepairManager&) = delete;
  SessionRepairManager& operator=(const SessionRepairManager&) = delete;

  /// Subscribes to the injector's node-change hook. Call once.
  void start();

  /// Scans live sessions for placements on `node` and repairs (or closes)
  /// them. Returns the number of placements repaired. Normally fired
  /// detection_delay_s after a crash; exposed for tests.
  std::size_t repair_node_failure(stream::NodeId node);

  std::uint64_t sessions_repaired() const { return sessions_repaired_; }
  std::uint64_t sessions_lost() const { return sessions_lost_; }
  const RepairConfig& config() const { return config_; }

 private:
  /// Best replacement for `fn`'s failed component: same function, hosted on
  /// a live node (≠ failed), lowest-utilization hosts first.
  std::vector<stream::ComponentId> ranked_candidates(stream::FunctionId function,
                                                     stream::NodeId failed, double now) const;

  stream::StreamSystem* sys_;
  stream::SessionTable* sessions_;
  sim::Engine* engine_;
  obs::CounterHandle repair_moves_;
  fault::FaultInjector* faults_;
  RepairConfig config_;
  obs::Observability* obs_;
  std::uint64_t sessions_repaired_ = 0;
  std::uint64_t sessions_lost_ = 0;
  bool started_ = false;
};

}  // namespace acp::core
