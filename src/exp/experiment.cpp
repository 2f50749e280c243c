#include "exp/experiment.h"

#include <array>
#include <memory>

#include "core/baseline_composers.h"
#include "core/probing_composers.h"
#include "core/probing_sharded.h"
#include "discovery/registry.h"
#include "obs/shard_capture.h"
#include "sim/sharded_engine.h"
#include "stream/session.h"
#include "util/logging.h"

namespace acp::exp {

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAcp: return "ACP";
    case Algorithm::kOptimal: return "Optimal";
    case Algorithm::kRandom: return "Random";
    case Algorithm::kStatic: return "Static";
    case Algorithm::kSp: return "SP";
    case Algorithm::kRp: return "RP";
  }
  return "?";
}

Algorithm algorithm_from_name(const std::string& name) {
  if (name == "ACP") return Algorithm::kAcp;
  if (name == "Optimal") return Algorithm::kOptimal;
  if (name == "Random") return Algorithm::kRandom;
  if (name == "Static") return Algorithm::kStatic;
  if (name == "SP") return Algorithm::kSp;
  if (name == "RP") return Algorithm::kRp;
  throw PreconditionError("unknown algorithm: " + name);
}

namespace {

bool is_probing(Algorithm a) {
  return a == Algorithm::kAcp || a == Algorithm::kSp || a == Algorithm::kRp;
}

/// Does the algorithm maintain (and pay for) the coarse global state?
bool uses_global_state(Algorithm a) { return a == Algorithm::kAcp || a == Algorithm::kSp; }

/// The counters behind ExperimentResult's message rates: probe messages,
/// then the two kinds of global-state update.
constexpr std::array<const char*, 3> kRateCounters = {obs::metric::kProbeMessages,
                                                      obs::metric::kStateGlobalUpdates,
                                                      obs::metric::kStateAggregationUpdates};
using RateCounts = std::array<std::uint64_t, kRateCounters.size()>;

/// Detaches the engine-backed trace clock and the logger's sim-time source
/// when the run ends (the engine dies with run_experiment's frame, so
/// leaving either attached would dangle).
struct ObsScope {
  explicit ObsScope(obs::Observability* obs) : obs_(obs) {}
  ~ObsScope() {
    if (obs_ != nullptr) {
      obs_->tracer.set_clock(nullptr);
      obs_->tracer.set_row_sink(nullptr);
    }
    util::Logger::set_time_source(nullptr);
  }
  obs::Observability* obs_;
};

}  // namespace

ExperimentResult run_experiment(const Fabric& fabric, const SystemConfig& system_config,
                                const ExperimentConfig& config) {
  ACP_REQUIRE(config.duration_minutes > 0.0);
  ACP_REQUIRE(config.warmup_minutes >= 0.0 && config.warmup_minutes < config.duration_minutes);

  Deployment dep = build_deployment(fabric, system_config);
  stream::StreamSystem& sys = *dep.sys;

  // Sharded runs swap the serial engine for the time-window PDES engine;
  // everything global-lane (state, faults, arrivals, sessions, sampling)
  // schedules on its global() Engine unchanged. Only probing algorithms
  // have request cascades to shard.
  const bool sharded = config.shards >= 1 && is_probing(config.algorithm);
  std::unique_ptr<sim::ShardedEngine> shard_eng;
  std::unique_ptr<sim::Engine> serial_eng;
  if (sharded) {
    sim::ShardedEngine::Config scfg;
    scfg.shards = config.shards;
    // Clamp to the conservative lookahead: no cross-node message lands
    // sooner than the minimum overlay-link delay.
    scfg.window_s = std::max(config.shard_window_s, sys.mesh().min_link_delay_ms() / 1000.0);
    shard_eng = std::make_unique<sim::ShardedEngine>(scfg);
  } else {
    serial_eng = std::make_unique<sim::Engine>();
  }
  sim::Engine& engine = sharded ? shard_eng->global() : *serial_eng;

  // Message and operation counts live in a metrics registry: the shared one
  // when observability is attached, a run-local bare registry otherwise (not
  // a whole Observability, which would switch every obs_ branch on).
  obs::Observability* obs = config.obs;
  obs::MetricsRegistry run_counters;
  obs::MetricsRegistry& counters = obs != nullptr ? obs->metrics : run_counters;
  stream::SessionTable sessions(sys);
  discovery::Registry registry(sys, counters, {}, obs);

  ObsScope obs_scope(obs);
  if (obs != nullptr) {
    engine.set_metrics(&obs->metrics);
    engine.set_attribution(&obs->attribution);
    obs->tracer.set_clock([&engine] { return engine.now(); });
    obs->tracer.begin_run(algorithm_name(config.algorithm));
    util::Logger::set_time_source([&engine] { return engine.now(); });
  }

  util::Rng run_rng(config.run_seed ^ (system_config.seed * 0x9e3779b97f4a7c15ULL));
  util::Rng workload_rng = run_rng.split(1);
  util::Rng probe_rng = run_rng.split(2);
  util::Rng baseline_rng = run_rng.split(3);
  util::Rng fault_rng = run_rng.split(4);

  // --- State management ----------------------------------------------------
  state::GlobalStateManager global_state(sys, engine, counters, config.global_state, obs);
  state::LocalStateManager local_state(sys, engine, counters, config.local_state);
  if (uses_global_state(config.algorithm)) {
    global_state.start();
    local_state.start();
  } else if (is_probing(config.algorithm)) {
    local_state.start();  // RP keeps local measurement but no global state
  }

  core::MigrationManager migration(sys, engine, counters, config.migration, obs);
  if (config.enable_migration) migration.start();

  // --- Composer ------------------------------------------------------------
  // RP never consults the global view; hand it ground truth defensively.
  const stream::StateView& guidance =
      uses_global_state(config.algorithm) ? global_state.view() : sys.true_state();
  core::ProbingProtocol protocol(sys, sessions, engine, counters, registry, guidance, probe_rng,
                                 config.probing, obs);
  core::ProbingRatioTuner tuner(sys, engine, config.tuner);

  // --- Sharded protocol instances ------------------------------------------
  // One ProbingProtocol per shard, each with a private discovery registry,
  // counter registry (its capture's metrics when attached), and
  // observability capture, so shard workers share no mutable state. Every
  // instance is constructed from the same probe_rng value and derives
  // per-request streams from the request id, so which instance runs a
  // request never shows in any observable.
  std::vector<std::unique_ptr<obs::ShardCapture>> captures;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> detached_lane_counters;
  std::vector<obs::MetricsRegistry*> all_counters{&counters};
  std::vector<std::unique_ptr<discovery::Registry>> shard_registries;
  std::vector<std::unique_ptr<stream::StateView>> shard_views;
  std::vector<std::unique_ptr<core::ProbingProtocol>> protocols;
  std::unique_ptr<core::ShardedProbing> router;
  core::ProbingExecutor* executor = &protocol;
  if (sharded) {
    sim::ShardedEngine* se = shard_eng.get();
    if (obs != nullptr) se->set_phase_profiler(&obs->metrics);
    std::vector<core::ProbingProtocol*> instance_ptrs;
    for (std::size_t i = 0; i < config.shards; ++i) {
      obs::Observability* cap_obs = nullptr;
      if (obs != nullptr) {
        captures.push_back(
            std::make_unique<obs::ShardCapture>(*obs, [se] { return se->next_row_key(); }));
        cap_obs = captures.back()->obs();
        cap_obs->tracer.set_clock([se] { return se->now(); });
        cap_obs->tracer.set_run_base(obs->tracer.run_index());
        shard_eng->set_lane_obs(i, &cap_obs->metrics, &cap_obs->attribution);
      }
      obs::MetricsRegistry* lane_counters = nullptr;
      if (cap_obs != nullptr) {
        lane_counters = &cap_obs->metrics;
      } else {
        detached_lane_counters.push_back(std::make_unique<obs::MetricsRegistry>());
        lane_counters = detached_lane_counters.back().get();
      }
      all_counters.push_back(lane_counters);
      shard_registries.push_back(std::make_unique<discovery::Registry>(
          sys, *lane_counters, discovery::DiscoveryConfig{}, cap_obs));
      // Global-state guidance reads record staleness; give each instance a
      // private view so worker threads never share that histogram.
      const stream::StateView* inst_guidance = &guidance;
      if (uses_global_state(config.algorithm)) {
        shard_views.push_back(global_state.make_shard_view(cap_obs));
        inst_guidance = shard_views.back().get();
      }
      protocols.push_back(std::make_unique<core::ProbingProtocol>(
          sys, sessions, engine, *lane_counters, *shard_registries.back(), *inst_guidance,
          probe_rng, config.probing, cap_obs));
      protocols.back()->set_shard_host(se);
      instance_ptrs.push_back(protocols.back().get());
    }
    router = std::make_unique<core::ShardedProbing>(shard_eng->plan(), std::move(instance_ptrs));
    executor = router.get();
  }

  // Global-lane trace rows need ordering keys too — they merge-sort with
  // the lanes' captured rows at end of run. Installed after begin_run so
  // the run_started marker streams directly.
  std::vector<obs::KeyedRow> global_rows;
  if (sharded && obs != nullptr && obs->tracer.enabled()) {
    sim::ShardedEngine* se = shard_eng.get();
    obs->tracer.set_row_sink([&global_rows, se](std::string&& line) {
      global_rows.push_back(obs::KeyedRow{se->next_row_key(), std::move(line)});
    });
  }

  // --- Fault injection + recovery ------------------------------------------
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<core::SessionRepairManager> repair_mgr;
  if (!config.faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(sys, engine, fault_rng, config.faults,
                                                      config.recovery, &counters, obs);
    if (sharded) {
      for (auto& p : protocols) p->set_fault_injector(injector.get());
    } else {
      protocol.set_fault_injector(injector.get());
    }
    global_state.set_fault_injector(injector.get());
    if (config.enable_repair) {
      repair_mgr = std::make_unique<core::SessionRepairManager>(sys, sessions, engine, counters,
                                                                *injector, config.repair, obs);
      repair_mgr->start();
    }
    injector->start();
  }

  std::unique_ptr<core::Composer> composer;
  switch (config.algorithm) {
    case Algorithm::kAcp:
      if (config.adaptive_alpha) {
        tuner.start();
        composer = std::make_unique<core::AcpComposer>(*executor,
                                                       [&tuner] { return tuner.alpha(); });
      } else {
        composer = std::make_unique<core::AcpComposer>(*executor, config.alpha);
      }
      break;
    case Algorithm::kSp:
      composer = std::make_unique<core::SpComposer>(*executor, config.alpha);
      break;
    case Algorithm::kRp:
      composer = std::make_unique<core::RpComposer>(*executor, config.alpha);
      break;
    case Algorithm::kOptimal:
      composer = std::make_unique<core::OptimalComposer>(
          core::BaselineContext{&sys, &sessions, &engine, &counters, obs});
      break;
    case Algorithm::kRandom:
      composer = std::make_unique<core::RandomComposer>(
          core::BaselineContext{&sys, &sessions, &engine, &counters, obs}, baseline_rng);
      break;
    case Algorithm::kStatic:
      composer = std::make_unique<core::StaticComposer>(
          core::BaselineContext{&sys, &sessions, &engine, &counters, obs});
      break;
  }

  // --- Workload ------------------------------------------------------------
  workload::RequestGenerator generator(sys.catalog(), dep.templates, config.workload,
                                       config.schedule, fabric.ip.node_count(), workload_rng);

  const double horizon_s = config.duration_minutes * 60.0;
  const double warmup_s = config.warmup_minutes * 60.0;

  ExperimentResult result;
  result.algorithm = config.algorithm;
  util::SuccessRateTracker sample_window;
  util::RunningStat phi_stat;
  util::RunningStat qualified_stat;

  // Requests must outlive their (possibly delayed) composition callback.
  // Decided requests are freed from the front at the next arrival, never on
  // the composer's stack, so trial memory follows the requests in flight,
  // not the run length.
  struct LiveRequest {
    workload::Request req;
    bool decided = false;
  };
  std::deque<LiveRequest> live_requests;

  // Message rates are counter deltas from this warmup event to the end of
  // the run, summed over the run's counter registries (lanes included).
  const auto message_counts = [&all_counters] {
    RateCounts n{};
    for (std::size_t i = 0; i < n.size(); ++i) {
      for (const obs::MetricsRegistry* r : all_counters) {
        if (const obs::Counter* c = r->find_counter(kRateCounters[i])) n[i] += c->value();
      }
    }
    return n;
  };
  RateCounts at_warmup{};
  engine.schedule_at(warmup_s, [&] { at_warmup = message_counts(); });

  // --- Arrival process -----------------------------------------------------
  std::function<void()> schedule_next_arrival = [&] {
    const double gap = generator.next_interarrival(engine.now());
    if (!(gap < std::numeric_limits<double>::infinity())) return;
    const double at = engine.now() + gap;
    if (at >= horizon_s) return;
    engine.schedule_at(at, [&] {
      while (!live_requests.empty() && live_requests.front().decided) live_requests.pop_front();
      LiveRequest* live = &live_requests.emplace_back();
      live->req = generator.make_request(engine.now());
      const workload::Request& req = live->req;
      if (config.adaptive_alpha) tuner.record_request(req);

      const double arrival = engine.now();
      composer->compose(req, [&, live, arrival](const core::CompositionOutcome& out) {
        live->decided = true;
        const bool measured = arrival >= warmup_s;
        if (measured) {
          ++result.requests;
          if (out.success()) ++result.successes;
          sample_window.record(out.success());
          if (out.success()) phi_stat.add(out.phi);
          qualified_stat.add(static_cast<double>(out.candidates_qualified));
        }
        if (config.adaptive_alpha) tuner.record_outcome(out.success());
        if (out.success()) {
          const stream::SessionId sid = out.session;
          const auto* rec = sessions.find(sid);
          ACP_ASSERT(rec != nullptr);
          // close() returning false at the planned end means the session was
          // torn down early — a fault killed it and repair couldn't save it.
          engine.schedule_at(
              std::max(rec->planned_end_time, engine.now()),
              [&, sid, measured] {
                const bool survived = sessions.close(sid);
                if (!measured) return;
                if (survived) {
                  ++result.sessions_completed;
                } else {
                  ++result.sessions_lost;
                }
              },
              obs::attr_wait::kSessionEnd);
          result.peak_active_sessions =
              std::max<std::uint64_t>(result.peak_active_sessions, sessions.active_count());
        }
      });
      schedule_next_arrival();
    }, obs::attr_wait::kArrival);
  };
  schedule_next_arrival();

  // --- u(t) sampling ---------------------------------------------------------
  const double sample_s = config.sample_period_minutes * 60.0;
  std::function<void()> schedule_sample = [&] {
    engine.schedule_after(
        sample_s,
        [&] {
          const double t_min = engine.now() / 60.0;
          result.success_series.add(t_min, sample_window.sample_and_reset());
          if (config.adaptive_alpha) result.alpha_series.add(t_min, tuner.alpha());
          schedule_sample();
        },
        obs::attr_wait::kSuccessSample);
  };
  schedule_sample();

  // --- Timeline telemetry ----------------------------------------------------
  // Sampler ticks are engine observers: ordered among the events, so the
  // deterministic sample rows are identical for any --jobs value, but
  // counted as none, so attaching the sampler changes no sim number.
  std::unique_ptr<obs::TimelineSampler> timeline_sampler;
  if (obs != nullptr && obs->timeline.enabled() && config.timeline.enabled()) {
    obs->timeline.begin_run(algorithm_name(config.algorithm));
    timeline_sampler = std::make_unique<obs::TimelineSampler>(
        obs->timeline, config.timeline,
        [&engine](double delay_s, std::function<void()> fn) {
          engine.observe_after(delay_s, std::move(fn), obs::attr_wait::kTimelineSample);
        },
        [&] {
          obs::TimelineSample s;
          s.events = sharded ? shard_eng->total_events_fired() : engine.events_fired();
          s.queue_depth = sharded ? shard_eng->total_pending() : engine.pending();
          s.live_probes = executor->live_probes();
          s.active_sessions = sessions.active_count();
          s.requests = result.requests;
          s.successes = result.successes;
          s.mean_phi = phi_stat.mean();
          return s;
        });
    timeline_sampler->start(horizon_s + 120.0);
  }

  // --- Run -------------------------------------------------------------------
  // A grace period past the horizon lets in-flight probes resolve; no new
  // requests arrive after the horizon.
  if (sharded) {
    shard_eng->run_until(horizon_s + 120.0);
  } else {
    engine.run_until(horizon_s + 120.0);
  }

  // Read before the lane captures fold into the shared registry, which
  // would count their messages twice.
  const auto at_end = message_counts();

  // Fold the lane captures back into the shared sinks: trace rows from the
  // global lane and every shard merge-sort by (sim time, submission-order
  // key, arrival rank) — a total order derived from event identity, never
  // worker timing — then histograms/attribution/metrics accumulate in
  // shard-index order.
  if (sharded && obs != nullptr) {
    obs->tracer.set_row_sink(nullptr);
    std::vector<std::vector<obs::KeyedRow>*> buffers;
    buffers.push_back(&global_rows);
    for (auto& c : captures) buffers.push_back(&c->rows());
    obs->tracer.append_raw(obs::merge_keyed_rows(std::move(buffers)));
    for (auto& c : captures) c->merge_stats_into(*obs);
  }

  // --- Metrics -----------------------------------------------------------------
  result.success_rate = result.requests == 0
                            ? 1.0
                            : static_cast<double>(result.successes) /
                                  static_cast<double>(result.requests);
  const double window_end = horizon_s;
  const double window_span_min = (window_end - warmup_s) / 60.0;
  if (window_span_min > 0) {
    const auto per_min = [&](std::size_t i) {
      return static_cast<double>(at_end[i] - at_warmup[i]) / window_span_min;
    };
    result.probe_rate_per_minute = per_min(0);
    result.state_update_rate_per_minute = per_min(1) + per_min(2);
    result.overhead_per_minute =
        result.probe_rate_per_minute + result.state_update_rate_per_minute;
  }
  result.mean_phi = phi_stat.mean();
  result.mean_candidates_qualified = qualified_stat.mean();
  result.component_migrations = migration.total_moves();
  const std::uint64_t finished = result.sessions_completed + result.sessions_lost;
  result.session_survival_rate =
      finished == 0 ? 1.0
                    : static_cast<double>(result.sessions_completed) /
                          static_cast<double>(finished);
  result.probe_retries = executor->retries_sent();
  result.deputy_reelections = executor->deputy_reelections();
  if (injector != nullptr) {
    result.faults_injected = injector->faults_injected();
    result.transients_reclaimed = injector->transients_reclaimed();
  }
  if (repair_mgr != nullptr) result.sessions_repaired = repair_mgr->sessions_repaired();
  return result;
}

}  // namespace acp::exp
