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
// The resulting CoarseView is what ACP's candidate selection consults:
// cheap to query, possibly stale — precise state comes from probes.
#pragma once

#include <memory>
#include <vector>

#include "fault/fault.h"
#include "obs/observability.h"
#include "sim/counters.h"
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
  /// virtual-link table at a long period — e.g. 10 minutes; we derive
  /// per-pair state on demand from published per-link states, so this is
  /// the publish period of those link states.)
  double aggregation_publish_interval_s = 120.0;
  /// Aggregation role rotation: round-robin each publish period.
  bool rotate_aggregation_node = true;
};

class GlobalStateManager {
 public:
  /// Registers with `engine` but does not start ticking until start().
  /// `obs`, when non-null, records acp.state.updates{kind} counters and —
  /// the number the paper's coarse-grain-state argument hinges on — the
  /// staleness of every coarse read (acp.state.read_staleness_s histogram
  /// and acp.state.staleness_age_s gauge): sim-time age of the published
  /// copy at the moment composition logic consults it.
  GlobalStateManager(const stream::StreamSystem& sys, sim::Engine& engine,
                     sim::CounterSet& counters, GlobalStateConfig config = {},
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
  /// share a histogram; the staleness-age gauge stays with view() — a
  /// point-in-time sample has no deterministic cross-shard merge.
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
  /// Feeds one coarse read's staleness into `obs`'s histogram (and gauge,
  /// when the reading view carries it). Views call it only when attached.
  void observe_read_staleness(double updated_at, obs::Observability& obs, bool gauge) const;

  const stream::StreamSystem* sys_;
  sim::Engine* engine_;
  sim::CounterSet* counters_;
  GlobalStateConfig config_;
  obs::Observability* obs_;
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
  std::unique_ptr<CoarseView> view_;
};

}  // namespace acp::state
