// Observability bundle — one metrics registry plus one tracer, passed by
// pointer into instrumented components (nullptr ⇒ observability off, all
// hooks compile to cheap branches).
//
// Also the home of the well-known metric and reason names, so call sites,
// the report, and tests agree on spelling. The registry is the only counter
// store: the message counters below (the paper's overhead metric) count
// into it on every run — into `metrics` when observability is attached,
// into a run-local registry when it is not.
#pragma once

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace acp::obs {

struct Observability {
  MetricsRegistry metrics;
  Tracer tracer;
  /// Wall-clock profiling scopes, recorded into `metrics` as
  /// acp.prof.wall_s{scope=...} histograms (see obs/profile.h).
  Profiler profiler{&metrics};
  /// Periodic sim-time snapshots as JSONL (see obs/timeline.h). Disabled
  /// unless a sink is attached (--timeline-out) AND the experiment config
  /// sets a sample interval.
  TimelineWriter timeline;
  /// Per-node/per-function/per-phase cost aggregation plus event-queue
  /// wait decomposition (see obs/attribution.h). Disabled unless enabled
  /// explicitly (--attribution-out).
  Attribution attribution;
};

/// Metric names (convention: acp.request.* / acp.probe.* / acp.state.* /
/// acp.sim.* / acp.migration.*).
namespace metric {
// Request lifecycle.
inline constexpr const char* kRequestAccepted = "acp.request.accepted";
inline constexpr const char* kRequestConfirmed = "acp.request.confirmed";
inline constexpr const char* kRequestFailed = "acp.request.failed";
inline constexpr const char* kRequestSetupTime = "acp.request.setup_time_s";

// Probe lifecycle.
inline constexpr const char* kProbeSpawned = "acp.probe.spawned";
inline constexpr const char* kProbeReturned = "acp.probe.returned";
inline constexpr const char* kProbeRetries = "acp.probe.retries";  ///< lost-hop retransmissions
inline constexpr const char* kProbeDeaths = "acp.probe.deaths";  ///< label: reason
inline constexpr const char* kProbeHopDepth = "acp.probe.hop_depth";
inline constexpr const char* kCandidatesEvaluated = "acp.probe.candidates_evaluated";
inline constexpr const char* kCandidatesRejected = "acp.probe.candidates_rejected";  ///< label: reason

// State maintenance.
inline constexpr const char* kStateReadStaleness = "acp.state.read_staleness_s";
inline constexpr const char* kStateStalenessAge = "acp.state.staleness_age_s";
inline constexpr const char* kStateUpdates = "acp.state.updates";  ///< label: kind

// Simulation engine.
inline constexpr const char* kSimEventsExecuted = "acp.sim.events_executed";
inline constexpr const char* kSimQueueDepth = "acp.sim.queue_depth";

// Messages and operations, counted with observability attached or not.
// Probe and state-update message rates (ExperimentResult) are deltas of
// these from the warmup event to the end of the run.
inline constexpr const char* kProbeMessages = "acp.probe.messages";  ///< incl. retransmissions
inline constexpr const char* kProbeRetryMessages = "acp.probe.retry_messages";
inline constexpr const char* kConfirmations = "acp.probe.confirmations";  ///< one per component
inline constexpr const char* kDiscoveryLookups = "acp.discovery.lookups";
inline constexpr const char* kStateGlobalUpdates = "acp.state.global_updates";
inline constexpr const char* kStateAggregationUpdates = "acp.state.aggregation_updates";
inline constexpr const char* kStateLocalRefresh = "acp.state.local_refresh";
inline constexpr const char* kMigrationMoves = "acp.migration.moves";
inline constexpr const char* kFaultEvents = "acp.fault.events";
inline constexpr const char* kTransientReclaims = "acp.recovery.transient_reclaims";
inline constexpr const char* kSessionRepairMoves = "acp.recovery.session_repair_moves";

// Fault injection (acp::fault) and the recovery mechanisms answering it.
inline constexpr const char* kFaultInjected = "acp.fault.injected";  ///< label: kind
inline constexpr const char* kFaultNodesDown = "acp.fault.nodes_down";  ///< gauge
inline constexpr const char* kFaultLinksDown = "acp.fault.links_down";  ///< gauge
inline constexpr const char* kTransientsReclaimed =
    "acp.recovery.transients_reclaimed";  ///< label: scope (crash|sweep)
inline constexpr const char* kSessionsRepaired = "acp.recovery.sessions_repaired";
inline constexpr const char* kSessionsLost = "acp.recovery.sessions_lost";
inline constexpr const char* kDeputyReelections = "acp.recovery.deputy_reelections";
}  // namespace metric

/// Probe-death reasons (`acp.probe.deaths{reason=...}`, `probe_rejected`
/// trace events). A probe dies exactly once.
namespace reason {
inline constexpr const char* kQoSViolation = "qos_violation";        ///< Eq. 6 on precise state
inline constexpr const char* kNodeReservation = "node_reservation";  ///< transient alloc failed
inline constexpr const char* kLinkReservation = "link_reservation";  ///< link transient failed
inline constexpr const char* kComponentMoved = "component_moved";    ///< migrated mid-flight
inline constexpr const char* kTimeout = "timeout";                   ///< outstanding at deadline
inline constexpr const char* kNoChildren = "no_children";            ///< dead end: nothing to spawn
inline constexpr const char* kMessageLost = "message_lost";          ///< retries exhausted (faults)
}  // namespace reason

/// Per-hop candidate rejection reasons (`acp.probe.candidates_rejected`).
/// Invariant: candidates_evaluated == probes_spawned + Σ_reason rejected.
namespace candidate_reason {
inline constexpr const char* kPolicy = "policy";                  ///< security/license
inline constexpr const char* kRateIncompatible = "rate_incompatible";
inline constexpr const char* kQoSBound = "qos_bound";             ///< Eq. 6 on coarse state
inline constexpr const char* kNodeResources = "node_resources";   ///< Eq. 7
inline constexpr const char* kLinkBandwidth = "link_bandwidth";   ///< Eq. 8
inline constexpr const char* kRankCutoff = "rank_cutoff";         ///< qualified, outside top M
inline constexpr const char* kBudget = "budget";                  ///< spawn-suppressed (cap)
}  // namespace candidate_reason

}  // namespace acp::obs
