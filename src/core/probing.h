// The distributed composition probing protocol (paper Sec. 3.3, Fig. 3).
//
// A request is redirected to its deputy node (the overlay member closest to
// the client). The deputy computes the probing ratio α and launches probes
// that walk each source→sink path of the function graph hop by hop. At each
// hop the visited node:
//
//   1. checks QoS/resource conformance of the probed partial composition
//      against its own precise state — unqualified probes are dropped;
//   2. performs transient resource allocation (expires on TTL unless
//      confirmed; one reservation per component per request — footnote 7);
//   3. derives next-hop functions from ξ;
//   4. discovers candidate components (decentralized discovery);
//   5. selects the best M = ceil(α·k) candidates — guided by the coarse
//      global state via (D, W) ranking for ACP/SP, uniformly at random for
//      RP;
//   6. spawns child probes and sends them onward (one message per probe
//      transmission, delayed by the virtual link's latency).
//
// Completed probes return to the deputy, which merges per-path assignments
// into component graphs (DAG case), filters by Eqs. 2–5 on precise state,
// applies the selection policy (min-φ for ACP/RP, random-qualified for SP),
// and commits the winner by confirming its transient reservations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/candidate_selection.h"
#include "core/composer.h"
#include "core/search.h"
#include "discovery/registry.h"
#include "fault/fault.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "sim/shard.h"
#include "stream/session.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/small_vec.h"

namespace acp::core {

/// Per-hop candidate selection rule.
enum class PerHopPolicy {
  kGuided,  ///< filter + (D, W) ranking on the coarse global state (ACP, SP)
  kRandom,  ///< uniformly random among discovered candidates (RP)
};

/// Final composition selection rule at the deputy.
enum class SelectionPolicy {
  kBestPhi,          ///< minimize φ(λ) over qualified compositions (ACP, RP)
  kRandomQualified,  ///< uniform over qualified compositions (SP)
};

struct ProbingConfig {
  /// Per-hop processing time at a node before children are sent (seconds).
  double hop_processing_s = 0.001;
  /// Transient reservation TTL; must exceed the probing round-trip.
  double transient_ttl_s = 60.0;
  /// Deputy gives up waiting for probes after this long and finalizes with
  /// whatever returned.
  double probe_timeout_s = 10.0;
  /// Risk-similarity epsilon for the (D, W) comparator.
  double risk_eps = 0.05;
  /// Guided-hop ranking rule (ablation knob; paper default).
  RankingPolicy ranking = RankingPolicy::kRiskThenCongestion;
  /// Safety cap: total probes spawned per request (spawn suppression keeps
  /// the best-ranked children when hit).
  std::size_t max_probes_per_request = 2048;
  /// Cap on merged candidate compositions at the deputy.
  std::size_t merge_cap = 512;
  /// Lost probe transmissions (fault injection) are retransmitted up to this
  /// many times with exponential backoff before the probe is abandoned.
  /// 0 = no retries (chaos-suite no-recovery arm).
  std::size_t max_retries = 3;
  /// Backoff before the first retransmission; doubles per attempt.
  double retry_backoff_s = 0.05;
  /// Re-elect the deputy of in-flight requests when it crashes (off = the
  /// request silently times out — no-recovery arm).
  bool enable_reelection = true;
};

/// What a probing-based composer needs from the protocol layer, independent
/// of how many protocol instances execute behind it: one instance in a
/// serial run, one per shard (routed by hashed deputy ownership) in a
/// sharded run. Stats accessors sum across instances in the latter case.
class ProbingExecutor {
 public:
  virtual ~ProbingExecutor() = default;

  /// Runs the full protocol for `req` with probing ratio `alpha`. `done`
  /// fires exactly once when the deputy finalizes (success or failure).
  /// `req` must stay alive until then.
  virtual void execute(const workload::Request& req, double alpha, PerHopPolicy hop_policy,
                       SelectionPolicy selection_policy,
                       std::function<void(const CompositionOutcome&)> done) = 0;

  virtual const ProbingConfig& config() const = 0;

  /// Deputy for a client host — the overlay member closest by IP delay.
  virtual stream::NodeId deputy_for(net::NodeIndex client_ip) const = 0;

  virtual std::uint64_t retries_sent() const = 0;
  virtual std::uint64_t deputy_reelections() const = 0;
  virtual std::uint64_t live_probes() const = 0;
};

class ProbingProtocol : public ProbingExecutor {
 public:
  /// `global_view` is the coarse state consulted by kGuided selection; RP
  /// (kRandom) never reads it and may pass the same pointer. Probe,
  /// retransmission and confirmation messages count into `counters`. All
  /// references must outlive the protocol. `obs`, when non-null, receives
  /// probe lifecycle trace spans and acp.request.* / acp.probe.* metrics.
  ProbingProtocol(stream::StreamSystem& sys, stream::SessionTable& sessions, sim::Engine& engine,
                  obs::MetricsRegistry& counters, discovery::Registry& registry,
                  const stream::StateView& global_view, util::Rng rng, ProbingConfig config = {},
                  obs::Observability* obs = nullptr);
  ~ProbingProtocol() override;

  /// Runs the full protocol for `req` with probing ratio `alpha`. `done`
  /// fires exactly once when the deputy finalizes (success or failure).
  /// `req` must stay alive until then.
  void execute(const workload::Request& req, double alpha, PerHopPolicy hop_policy,
               SelectionPolicy selection_policy,
               std::function<void(const CompositionOutcome&)> done) override;

  const ProbingConfig& config() const override { return config_; }

  /// Deputy for a client host — the overlay member closest by IP delay;
  /// crashed members are skipped when a fault injector is attached.
  stream::NodeId deputy_for(net::NodeIndex client_ip) const override;

  /// Switches the protocol into sharded mode: request cascades run on
  /// private event streams of `host` (one per request, pinned by hashed
  /// deputy ownership), admissions are claimed against window-frozen pool
  /// state and applied as deferred ops at the barrier, and all per-request
  /// randomness/probe ids derive from the request id so every observable is
  /// shard-count-invariant. Call before the first execute(); nullptr
  /// restores the serial path (the default, byte-identical to the
  /// pre-sharding protocol).
  void set_shard_host(sim::ShardHost* host);

  /// Attaches fault injection: probe transmissions consult message_fate
  /// (loss → retry with backoff, delay → added latency) and deputy death
  /// triggers re-election for the affected in-flight requests. Call before
  /// the first execute(); pass nullptr for the fault-free happy path.
  void set_fault_injector(fault::FaultInjector* faults);

  std::uint64_t retries_sent() const override { return retries_sent_; }
  std::uint64_t deputy_reelections() const override { return deputy_reelections_; }

  /// Probes in flight right now, across every non-finalized request — the
  /// timeline sampler's instantaneous load observable. A probe counts from
  /// its spawn until it returns, dies, forks, or its deputy finalizes with
  /// it still outstanding (timeout).
  std::uint64_t live_probes() const override { return live_probes_; }

  /// Probe-slab slots in use: serial probe hops and returns scheduled and
  /// not yet fired. 0 once the engine has run past every one of them,
  /// late arrivals after a finalize included.
  std::size_t parked_probes() const;

 private:
  struct Coordinator;
  struct Probe;
  /// A probe slab slot: a serial hop or return in flight, with the
  /// coordinator it keeps alive until the event fires.
  struct Parked;

  /// Schedules `probe`'s arrival `delay_s` from now: at probe.at
  /// (process_probe) or, `returning`, at the deputy (probe_returned).
  /// Serially it parks the probe in the slab under a typed event; sharded,
  /// a closure on the request's stream carries it.
  void deliver(const std::shared_ptr<Coordinator>& coord, const Probe& probe, double delay_s,
               bool returning);
  /// The typed events' handlers: `slot` names the parked probe, which they
  /// take out of the slab (freeing the slot for the children it spawns)
  /// before processing it.
  static void hop_arrived(void* self, std::uint64_t slot);
  static void return_arrived(void* self, std::uint64_t slot);
  Parked unpark(std::uint64_t slot);

  void process_probe(const std::shared_ptr<Coordinator>& coord, Probe probe);
  void probe_returned(const std::shared_ptr<Coordinator>& coord, const Probe& probe);
  void probe_ended(const std::shared_ptr<Coordinator>& coord);
  /// The deputy's optimal-composition step (paper Sec. 3.3 step 3), then
  /// commit(). Serial min-φ selection over one or two paths takes the
  /// bounded join's winner, a one-entry ranking. SP, sharded mode and
  /// graphs of more than two paths merge the returned paths and rank every
  /// qualified candidate by the selection policy; sharded, commit() runs as
  /// a barrier op, since the ranking read window-frozen state.
  void finalize(const std::shared_ptr<Coordinator>& coord);

  /// Commits the first of `ranked` ((φ, index into `graphs`) in preference
  /// order) that qualifies, cancels the request's transients otherwise, and
  /// records the outcome. Serially nothing runs between the ranking and
  /// commit, and the ranking's φ came from evaluate() on the same view and
  /// time, so the head commits with its ranked φ. Sharded, the barrier
  /// re-evaluates each candidate against live state.
  CompositionOutcome commit(const Coordinator& coord,
                            std::span<const stream::ComponentGraph> graphs,
                            std::span<const std::pair<double, std::size_t>> ranked,
                            CompositionOutcome out, bool cap_hit);

  // ---- Serial/sharded dispatch helpers ------------------------------------
  // Each branches on shard_: the serial path is byte-identical to the
  // pre-sharding protocol (same engine calls, same rng_ draw order, same
  // probe-id sequence); the sharded path routes events to the request's
  // stream and derives randomness/ids from the request.

  double sim_now() const { return shard_ != nullptr ? shard_->now() : engine_->now(); }
  sim::EventId sched(const std::shared_ptr<Coordinator>& coord, double delay,
                     std::function<void()> cb, const char* tag);
  std::uint64_t new_probe_id(Coordinator& coord);
  /// Transient admission: serial = reserve_*_transient; sharded = the
  /// request's ClaimLedger (fit check against frozen pools minus its own
  /// pending claims), reservation deferred as a force_reserve op.
  bool admit_node(Coordinator& coord, std::uint32_t tag, stream::NodeId node,
                  const stream::ResourceVector& amount, double now, double expires_at);
  bool admit_link(Coordinator& coord, std::uint32_t tag, stream::NodeId a, stream::NodeId b,
                  double kbps, double now, double expires_at);

  /// Sends `probe` from `from` over the virtual link, consulting the fault
  /// injector (when attached) for loss/extra delay. Lost transmissions are
  /// retransmitted after retry_backoff_s·2^attempt, re-evaluating delivery
  /// fate each attempt (a healed link genuinely rescues the probe); after
  /// max_retries the probe dies with reason message_lost. `returning` probes
  /// are re-addressed to the coordinator's *current* deputy on every attempt
  /// so deputy re-election rescues in-flight returns.
  void send_probe(const std::shared_ptr<Coordinator>& coord, Probe probe, stream::NodeId from,
                  bool returning, std::size_t attempt);

  /// Fault hook: re-elects the deputy for in-flight requests whose deputy
  /// crashed (the overlay member closest to the client among live nodes).
  void on_node_change(stream::NodeId node, bool up);

  /// One probe-death reason: its name and its acp.probe.deaths series.
  struct Death {
    const char* reason = nullptr;
    obs::CounterHandle count;
  };

  /// Records one probe death: acp.probe.deaths{reason} + probe_rejected
  /// span. `component`, when >= 0, is the component whose disappearance or
  /// state killed the probe (today: component_moved) — the causal link a
  /// span tree needs to join the death to its component_migrated event.
  void probe_died(const Probe& probe, stream::RequestId req, Death& death,
                  std::int64_t component = -1);

  stream::StreamSystem* sys_;
  stream::SessionTable* sessions_;
  sim::Engine* engine_;
  discovery::Registry* registry_;
  const stream::StateView* global_view_;
  util::Rng rng_;
  ProbingConfig config_;
  obs::Observability* obs_;
  obs::Attribution* attr_ = nullptr;  ///< &obs_->attribution; null when obs off
  fault::FaultInjector* faults_ = nullptr;
  sim::ShardHost* shard_ = nullptr;  ///< non-null = sharded mode
  /// Base for per-request RNG derivation in sharded mode, drawn once from
  /// rng_ when the shard host attaches (the serial path never draws it, so
  /// serial rng_ sequences are untouched). Every protocol instance of a
  /// sharded run is constructed with the same rng and therefore derives the
  /// same base — per-request streams are instance- and shard-count-
  /// invariant.
  std::uint64_t seed_base_ = 0;
  std::uint64_t next_probe_id_ = 0;
  /// Per-hop scratch (qualified/selected candidate lists, ranking scores):
  /// reset at the top of every process_probe, so a steady-state hop makes
  /// zero allocator calls. The protocol is per-trial, so this needs no
  /// synchronization under the parallel trial runner.
  util::Arena scratch_;
  std::uint64_t retries_sent_ = 0;
  std::uint64_t deputy_reelections_ = 0;
  std::uint64_t live_probes_ = 0;  ///< Σ outstanding over live coordinators
  /// In-flight coordinators, scanned on node-crash for deputy re-election
  /// (pruned lazily; finalized entries are skipped).
  std::vector<std::weak_ptr<Coordinator>> active_;
  /// The probe slab: serial hops and returns in flight, by slot; freed
  /// slots are recycled.
  std::vector<Parked> slab_;
  std::vector<std::uint32_t> slab_free_;

  // Wall-clock profiling scopes (inert without obs_): the per-hop hot path,
  // its candidate-ranking section, and the deputy's finalize step. Each
  // also feeds attr_host{probe|rank|finalize} when attribution is enabled.
  obs::ProfSlot prof_process_;
  obs::ProfSlot prof_rank_;
  obs::ProfSlot prof_finalize_;

  // Message counts, live with or without observability.
  obs::CounterHandle probe_messages_;
  obs::CounterHandle retry_messages_;
  obs::CounterHandle confirmations_;
  // Per-event lifecycle series, resolved on first use; inert without obs_.
  obs::CounterHandle accepted_;
  obs::CounterHandle confirmed_;
  obs::CounterHandle failed_;
  obs::CounterHandle spawned_;
  obs::CounterHandle returned_;
  obs::CounterHandle retries_;
  obs::CounterHandle evaluated_;
  obs::HistogramHandle hop_depth_;
  obs::HistogramHandle setup_confirmed_;
  obs::HistogramHandle setup_failed_;
  /// acp.probe.candidates_rejected{reason}, one per obs::candidate_reason.
  obs::CounterHandle rejected_policy_;
  obs::CounterHandle rejected_rate_;
  obs::CounterHandle rejected_qos_;
  obs::CounterHandle rejected_node_;
  obs::CounterHandle rejected_link_;
  obs::CounterHandle rejected_rank_;
  obs::CounterHandle rejected_budget_;
  /// acp.probe.deaths{reason}, one per obs::reason.
  Death died_qos_;
  Death died_node_;
  Death died_link_;
  Death died_moved_;
  Death died_timeout_;
  Death died_childless_;
  Death died_lost_;

  /// The deputy's evaluation buffers: used by finalize() and by commit(),
  /// which in sharded mode runs in the apply phase while this instance's
  /// lane is idle.
  stream::CompositionEvaluator evaluator_;
  BestPhiJoin join_;  ///< finalize()'s min-φ pick, buffers reused
};

}  // namespace acp::core
