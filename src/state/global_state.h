// Coarse-grain global state maintenance (paper Sec. 3.2).
//
// Every node measures its own QoS/resource state frequently but only pushes
// an update into the global state when the change since its last report
// exceeds a threshold (the paper triggers at 10% of a metric's maximum
// value) — insignificant variations are filtered out. Overlay-link states
// flow to a rotating *aggregation node*, which periodically publishes them
// so virtual-link (per-pair) properties can be derived; all other nodes
// query the published copy. QoS is static in the simulated system, so it
// has no coarse copy (StreamSystem serves it).
//
// The paper's aggregation node folds the link states into an all-pairs
// virtual-link table once per publication. Here that table is realized
// lazily: each CoarseView memoizes a pair's bottleneck bandwidth the first
// time it is read after a publication, and forgets the memo at the next
// one, so a pair is walked at most once per publication per view.
//
// The resulting CoarseView is what ACP's candidate selection consults:
// cheap to query, possibly stale — precise state comes from probes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "state/state_arrays.h"
#include "stream/state_view.h"
#include "stream/system.h"

namespace acp::state {

struct GlobalStateConfig {
  /// How often nodes compare their live state against their last report.
  double check_interval_s = 10.0;
  /// Update trigger: |live - reported| > threshold_fraction * capacity on
  /// any dimension (paper: 10% of the maximum value).
  double threshold_fraction = 0.10;
  /// How often the aggregation node publishes collected link states into
  /// the globally queryable copy. (The paper recomputes the all-pairs
  /// virtual-link table at a long period — e.g. 10 minutes; the coarse view
  /// derives each pair's entry from the published per-link states on its
  /// first read after a publish, so this is the period of both.)
  double aggregation_publish_interval_s = 120.0;
  /// Aggregation role rotation: round-robin each publish period.
  bool rotate_aggregation_node = true;
};

class GlobalStateManager {
 public:
  /// Registers with `engine` but does not start ticking until start().
  /// Update messages count into `counters` (acp.state.global_updates,
  /// acp.state.aggregation_updates). `obs`, when non-null, records
  /// acp.state.updates{kind} counters and — the number the paper's
  /// coarse-grain-state argument hinges on — the staleness of every coarse
  /// query of a node, link or virtual link (acp.state.read_staleness_s
  /// histogram and acp.state.staleness_age_s gauge): sim-time age of the
  /// published copy at the moment composition logic consults it.
  GlobalStateManager(const stream::StreamSystem& sys, sim::Engine& engine,
                     obs::MetricsRegistry& counters, GlobalStateConfig config = {},
                     obs::Observability* obs = nullptr);
  ~GlobalStateManager();

  GlobalStateManager(const GlobalStateManager&) = delete;
  GlobalStateManager& operator=(const GlobalStateManager&) = delete;

  /// Seeds the global state from current ground truth and schedules the
  /// periodic check/publish ticks.
  void start();

  /// The coarse, possibly stale view that composition logic queries.
  const stream::StateView& view() const;

  /// A detached view over the same published copies that records read
  /// staleness into `obs` (may be null) instead of the manager's own sink.
  /// Shard workers consult a private one each, so concurrent reads never
  /// share a histogram or a virtual-link memo; the staleness-age gauge
  /// stays with view() — a point-in-time sample has no deterministic
  /// cross-shard merge.
  std::unique_ptr<stream::StateView> make_shard_view(obs::Observability* obs) const;

  /// Which node currently plays the aggregation role.
  stream::NodeId aggregation_node() const { return aggregation_node_; }

  const GlobalStateConfig& config() const { return config_; }

  /// Forces one check sweep right now (normally driven by the tick). Counts
  /// update messages exactly like the periodic path. Exposed for tests.
  void run_check_sweep();

  /// Forces an aggregation publish right now. Exposed for tests.
  void run_publish();

  /// Attaches fault injection: while a state freeze is active, check sweeps
  /// and publishes are suppressed (the coarse state silently goes stale);
  /// a pending state tear makes the next publish apply only half of the
  /// collected link states. nullptr detaches.
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

 private:
  class CoarseView;

  void schedule_check();
  void schedule_publish();

  const stream::StreamSystem* sys_;
  sim::Engine* engine_;
  obs::CounterHandle global_updates_;       ///< acp.state.global_updates
  obs::CounterHandle aggregation_updates_;  ///< acp.state.aggregation_updates
  GlobalStateConfig config_;
  /// acp.state.updates{kind}; inert without observability.
  obs::CounterHandle updates_node_;
  obs::CounterHandle updates_link_;
  obs::CounterHandle updates_publish_;
  obs::CounterHandle updates_torn_;
  obs::CounterHandle updates_suppressed_;
  fault::FaultInjector* faults_ = nullptr;
  obs::ProfSlot prof_check_;    ///< "state.check_sweep" wall time
  obs::ProfSlot prof_publish_;  ///< "state.publish" wall time

  // Published (queryable) coarse copies in struct-of-arrays layout: the
  // check sweep walks one resource dimension at a time, and the link arrays
  // carry the aggregation pipeline's shadow copies (reported/collected)
  // alongside the published values. Indexed by NodeHandle/LinkHandle
  // (== overlay node/link index).
  NodeStateArrays nodes_;
  LinkStateArrays links_;

  stream::NodeId aggregation_node_ = 0;
  bool started_ = false;
  /// Bumped by start() and by every publish that lands (torn or not); a
  /// view's virtual-link memo is valid only for the value it was filled at.
  std::uint64_t publication_ = 0;
  std::unique_ptr<CoarseView> view_;
};

}  // namespace acp::state
