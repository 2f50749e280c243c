// Integration tests: the full experiment driver end to end, plus
// system-level conservation invariants.
#include <gtest/gtest.h>

#include "exp/experiment.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/probing_composers.h"

namespace acp::exp {
namespace {

SystemConfig small_system(std::uint64_t seed = 42) {
  SystemConfig cfg;
  cfg.seed = seed;
  cfg.topology.node_count = 600;
  cfg.overlay.member_count = 80;
  cfg.components_per_node = 3;  // ~3 candidates per function
  return cfg;
}

ExperimentConfig short_run(Algorithm algo, double rate = 40.0) {
  ExperimentConfig cfg;
  cfg.algorithm = algo;
  cfg.duration_minutes = 6.0;
  cfg.schedule = {{0.0, rate}};
  cfg.sample_period_minutes = 2.0;
  return cfg;
}

TEST(Experiment, AlgorithmNamesRoundTrip) {
  for (Algorithm a : {Algorithm::kAcp, Algorithm::kOptimal, Algorithm::kRandom,
                      Algorithm::kStatic, Algorithm::kSp, Algorithm::kRp}) {
    EXPECT_EQ(algorithm_from_name(algorithm_name(a)), a);
  }
  EXPECT_THROW(algorithm_from_name("bogus"), acp::PreconditionError);
}

TEST(Experiment, RunsEveryAlgorithmEndToEnd) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  for (Algorithm algo : {Algorithm::kAcp, Algorithm::kOptimal, Algorithm::kRandom,
                         Algorithm::kStatic, Algorithm::kSp, Algorithm::kRp}) {
    const auto res = run_experiment(fabric, sys_cfg, short_run(algo));
    EXPECT_GT(res.requests, 100u) << algorithm_name(algo);
    EXPECT_GE(res.success_rate, 0.0);
    EXPECT_LE(res.success_rate, 1.0);
    EXPECT_GE(res.overhead_per_minute, 0.0);
    EXPECT_EQ(res.algorithm, algo);
    EXPECT_GE(res.success_series.size(), 2u);
  }
}

TEST(Experiment, DeterministicForSameSeeds) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  const auto a = run_experiment(fabric, sys_cfg, short_run(Algorithm::kAcp));
  const auto b = run_experiment(fabric, sys_cfg, short_run(Algorithm::kAcp));
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_DOUBLE_EQ(a.overhead_per_minute, b.overhead_per_minute);
}

TEST(Experiment, DifferentRunSeedsDiffer) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  auto cfg = short_run(Algorithm::kAcp);
  const auto a = run_experiment(fabric, sys_cfg, cfg);
  cfg.run_seed = 12345;
  const auto b = run_experiment(fabric, sys_cfg, cfg);
  EXPECT_NE(a.requests, b.requests);  // different arrival process
}

TEST(Experiment, ProbingAlgorithmsReportProbeOverhead) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  const auto acp = run_experiment(fabric, sys_cfg, short_run(Algorithm::kAcp));
  EXPECT_GT(acp.probe_rate_per_minute, 0.0);
  EXPECT_GT(acp.state_update_rate_per_minute, 0.0);  // coarse state running

  const auto rp = run_experiment(fabric, sys_cfg, short_run(Algorithm::kRp));
  EXPECT_GT(rp.probe_rate_per_minute, 0.0);
  EXPECT_DOUBLE_EQ(rp.state_update_rate_per_minute, 0.0);  // no global state

  const auto rnd = run_experiment(fabric, sys_cfg, short_run(Algorithm::kRandom));
  EXPECT_DOUBLE_EQ(rnd.probe_rate_per_minute, 0.0);
}

TEST(Experiment, OptimalOverheadDwarfsAcp) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  const auto optimal = run_experiment(fabric, sys_cfg, short_run(Algorithm::kOptimal));
  auto acp_cfg = short_run(Algorithm::kAcp);
  acp_cfg.alpha = 0.3;
  const auto acp = run_experiment(fabric, sys_cfg, acp_cfg);
  EXPECT_GT(optimal.overhead_per_minute, acp.overhead_per_minute * 5.0);
}

TEST(Experiment, OptimalSuccessDominatesRandomAndStatic) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  const auto optimal = run_experiment(fabric, sys_cfg, short_run(Algorithm::kOptimal, 60.0));
  const auto random = run_experiment(fabric, sys_cfg, short_run(Algorithm::kRandom, 60.0));
  const auto fixed = run_experiment(fabric, sys_cfg, short_run(Algorithm::kStatic, 60.0));
  EXPECT_GT(optimal.success_rate, random.success_rate);
  EXPECT_GT(random.success_rate, fixed.success_rate);
}

TEST(Experiment, WarmupExcludesEarlyOutcomes) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  auto cfg = short_run(Algorithm::kRandom);
  const auto full = run_experiment(fabric, sys_cfg, cfg);
  cfg.warmup_minutes = 3.0;
  const auto tail = run_experiment(fabric, sys_cfg, cfg);
  EXPECT_LT(tail.requests, full.requests);
  EXPECT_GT(tail.requests, 0u);
}

TEST(Experiment, AdaptiveAlphaProducesAlphaSeries) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  auto cfg = short_run(Algorithm::kAcp);
  cfg.adaptive_alpha = true;
  cfg.tuner.sampling_period_s = 120.0;
  const auto res = run_experiment(fabric, sys_cfg, cfg);
  EXPECT_GE(res.alpha_series.size(), 2u);
  for (std::size_t i = 0; i < res.alpha_series.size(); ++i) {
    EXPECT_GT(res.alpha_series.value_at(i), 0.0);
    EXPECT_LE(res.alpha_series.value_at(i), 1.0);
  }
}

TEST(Experiment, DeploymentIsReproducibleAndFresh) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  const auto d1 = build_deployment(fabric, sys_cfg);
  const auto d2 = build_deployment(fabric, sys_cfg);
  ASSERT_EQ(d1.sys->component_count(), d2.sys->component_count());
  for (stream::ComponentId c = 0; c < d1.sys->component_count(); ++c) {
    EXPECT_EQ(d1.sys->component(c).node, d2.sys->component(c).node);
    EXPECT_EQ(d1.sys->component(c).function, d2.sys->component(c).function);
  }
  // Every function has at least one provider (guaranteed coverage).
  for (stream::FunctionId f = 0; f < d1.sys->catalog().size(); ++f) {
    EXPECT_FALSE(d1.sys->components_providing(f).empty()) << "function " << f;
  }
}

TEST(Experiment, CandidateDensityScalesWithNodeCount) {
  auto cfg_small = small_system();
  cfg_small.overlay.member_count = 80;
  auto cfg_large = small_system();
  cfg_large.overlay.member_count = 160;
  const auto fabric_small = build_fabric(cfg_small);
  const auto fabric_large = build_fabric(cfg_large);
  const auto dep_small = build_deployment(fabric_small, cfg_small);
  const auto dep_large = build_deployment(fabric_large, cfg_large);
  EXPECT_EQ(dep_large.sys->component_count(), 2 * dep_small.sys->component_count());
}

// Observability must not change what a run measures. Detached, messages
// count into a run-local registry; attached, into the shared bundle, which
// the first attached run below finds empty and the second finds holding the
// first's counts; sharded, also into one registry per lane. The rates are
// deltas from the warmup event either way, so every arm reads bit-equal.
TEST(Experiment, AttachedRunsMeasureWhatDetachedRunsMeasure) {
  const auto sys_cfg = small_system();
  const auto fabric = build_fabric(sys_cfg);
  fault::FaultPlan faults;
  faults.node_crash_rate_per_min = 1.0;
  faults.node_downtime_s = 30.0;
  faults.probe_loss_prob = 0.05;
  struct Arm {
    Algorithm algorithm;
    std::size_t shards;
    bool faulty;
  };
  for (const Arm arm : {Arm{Algorithm::kAcp, 0, false}, Arm{Algorithm::kAcp, 2, false},
                        Arm{Algorithm::kOptimal, 0, false}, Arm{Algorithm::kAcp, 2, true}}) {
    SCOPED_TRACE(algorithm_name(arm.algorithm) + " shards=" + std::to_string(arm.shards) +
                 (arm.faulty ? " with faults" : ""));
    auto cfg = short_run(arm.algorithm);
    cfg.warmup_minutes = 1.0;
    cfg.shards = arm.shards;
    if (arm.faulty) cfg.faults = faults;
    const ExperimentResult detached = run_experiment(fabric, sys_cfg, cfg);
    EXPECT_GT(detached.probe_rate_per_minute, 0.0);

    obs::Observability bundle;
    cfg.obs = &bundle;
    for (int run = 0; run < 2; ++run) {
      const ExperimentResult attached = run_experiment(fabric, sys_cfg, cfg);
      EXPECT_EQ(attached.probe_rate_per_minute, detached.probe_rate_per_minute) << run;
      EXPECT_EQ(attached.state_update_rate_per_minute, detached.state_update_rate_per_minute)
          << run;
      EXPECT_EQ(attached.overhead_per_minute, detached.overhead_per_minute) << run;
      EXPECT_EQ(attached.success_rate, detached.success_rate) << run;
      EXPECT_EQ(attached.mean_phi, detached.mean_phi) << run;
    }
    EXPECT_GT(bundle.metrics.counter_family_total(obs::metric::kProbeMessages), 0u);
  }
}

// Conservation: no pool holds a transient record of a request once its
// outcome is known, and after a full run plus teardown horizon every pool
// drains back to full capacity with no live transient and no commit record
// left, the system's footprint index is empty (no leaked commitments,
// transients or index entries), and every probe-slab slot is free (late
// arrivals after a finalize freed theirs). Read at the drain time itself: a
// leaked transient would have expired by any far-future read. Runs on an
// Inet world and a small torus, fault-free and under node crashes, probe
// loss, scripted transient leaks and the injector's reclamation sweeps.
// Returns how many requests finalized at their deadline with probes still
// parked in the slab.
bool holds_any_transient(const stream::StreamSystem& sys, stream::RequestId request) {
  for (stream::NodeId n = 0; n < sys.node_count(); ++n) {
    if (sys.node_pool(n).holds_transients_of(request)) return true;
  }
  for (net::OverlayLinkIndex l = 0; l < sys.mesh().link_count(); ++l) {
    if (sys.link_pool(l).holds_transients_of(request)) return true;
  }
  return false;
}

std::size_t check_conservation(const SystemConfig& sys_cfg, bool faults,
                               double probe_timeout_s = core::ProbingConfig{}.probe_timeout_s) {
  const auto fabric = build_fabric(sys_cfg);
  Deployment dep = build_deployment(fabric, sys_cfg);
  auto& sys = *dep.sys;

  sim::Engine engine;
  obs::MetricsRegistry counters;
  stream::SessionTable sessions(sys);
  discovery::Registry registry(sys, counters);
  state::GlobalStateManager global_state(sys, engine, counters);
  global_state.start();
  core::ProbingConfig probing;
  probing.probe_timeout_s = probe_timeout_s;
  core::ProbingProtocol protocol(sys, sessions, engine, counters, registry, global_state.view(),
                                 util::Rng(3), probing);
  core::AcpComposer acp(protocol, 0.5);

  // Leaked holds use the injector's default hour-long TTL, so only the age
  // sweep (every sweep_interval_s, for holds older than
  // max_transient_age_s) can reclaim them before the drain.
  const fault::RecoveryConfig recovery;
  const std::vector<double> leak_times{5.0, 30.0};
  std::unique_ptr<fault::FaultInjector> injector;
  if (faults) {
    fault::FaultPlan plan;
    plan.node_crash_rate_per_min = 2.0;
    plan.node_downtime_s = 20.0;
    plan.probe_loss_prob = 0.05;
    for (const double at : leak_times) {
      fault::FaultEvent leak;
      leak.at_s = at;
      leak.kind = fault::FaultKind::kTransientLeak;
      leak.count = 3;
      plan.events.push_back(leak);
    }
    injector = std::make_unique<fault::FaultInjector>(sys, engine, util::Rng(5), plan, recovery,
                                                      &counters);
    protocol.set_fault_injector(injector.get());
    injector->start();
  }

  workload::RequestGenerator gen(sys.catalog(), dep.templates, {}, {{0.0, 30.0}},
                                 fabric.ip.node_count(), util::Rng(4));
  std::deque<workload::Request> live;
  std::vector<stream::SessionId> open_sessions;
  std::size_t parked_at_deadline = 0;
  double t = 0.0;
  for (int i = 0; i < 50; ++i) {
    t += gen.next_interarrival(t);
    live.push_back(gen.make_request(t));
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    const workload::Request* rp = &live[i];  // deque elements are stable
    engine.schedule_at(rp->arrival_time, [&, rp] {
      acp.compose(*rp, [&, rp](const core::CompositionOutcome& out) {
        EXPECT_FALSE(holds_any_transient(sys, rp->id)) << "request " << rp->id;
        if (engine.now() == rp->arrival_time + probe_timeout_s && protocol.parked_probes() > 0) {
          ++parked_at_deadline;
        }
        if (out.success()) open_sessions.push_back(out.session);
      });
    });
  }
  // run_until, not run(): the state manager's periodic ticks self-reschedule
  // forever. Past the last probe deadline, and past the sweep that finds
  // the last leak older than max_transient_age_s.
  double drain = t + 120.0;
  for (const double at : leak_times) {
    drain = std::max(drain, at + recovery.max_transient_age_s + 2.0 * recovery.sweep_interval_s);
  }
  engine.run_until(drain);
  EXPECT_FALSE(open_sessions.empty());
  if (faults) {
    EXPECT_GT(injector->faults_injected(), 0u);
    EXPECT_GT(injector->transients_reclaimed(), 0u);
  }
  for (auto sid : open_sessions) sessions.close(sid);

  const double now = engine.now();
  for (stream::NodeId n = 0; n < sys.node_count(); ++n) {
    const auto& pool = sys.node_pool(n);
    EXPECT_EQ(pool.live_transient_count(now), 0u) << "node " << n;
    EXPECT_EQ(pool.committed_count(), 0u) << "node " << n;
    const auto avail = pool.available(now);
    EXPECT_NEAR(avail.cpu(), pool.capacity().cpu(), 1e-9) << "node " << n;
    EXPECT_NEAR(avail.memory_mb(), pool.capacity().memory_mb(), 1e-9) << "node " << n;
  }
  for (net::OverlayLinkIndex l = 0; l < sys.mesh().link_count(); ++l) {
    const auto& pool = sys.link_pool(l);
    EXPECT_EQ(pool.live_transient_count(now), 0u) << "link " << l;
    EXPECT_EQ(pool.committed_count(), 0u) << "link " << l;
    EXPECT_NEAR(pool.available(now), pool.capacity(), 1e-9) << "link " << l;
  }
  EXPECT_EQ(sys.held_request_count(), 0u);
  EXPECT_EQ(sys.committed_session_count(), 0u);
  EXPECT_EQ(protocol.parked_probes(), 0u);
  return parked_at_deadline;
}

TEST(Experiment, ResourceConservationAfterAllSessionsEnd) {
  auto torus = small_system();
  torus.torus_rows = 8;
  torus.torus_cols = 10;
  for (const bool faults : {false, true}) {
    {
      SCOPED_TRACE(faults ? "inet, faults" : "inet, no faults");
      check_conservation(small_system(), faults);
    }
    {
      SCOPED_TRACE(faults ? "torus, faults" : "torus, no faults");
      check_conservation(torus, faults);
    }
  }
}

TEST(Experiment, ProbeSlabDrainsAfterDeadlinesWithProbesInFlight) {
  // Deadlines short enough that requests finalize with probes parked, under
  // loss, retries and deputy crashes: the late arrivals free every slot.
  auto torus = small_system();
  torus.torus_rows = 8;
  torus.torus_cols = 10;
  {
    SCOPED_TRACE("inet");
    EXPECT_GT(check_conservation(small_system(), /*faults=*/true, 0.1), 0u);
  }
  {
    SCOPED_TRACE("torus");
    EXPECT_GT(check_conservation(torus, /*faults=*/true, 0.1), 0u);
  }
}

}  // namespace
}  // namespace acp::exp
