// Attaching an observability sink must change no sim number: one small
// world runs detached, then once per sink the figure benches attach, each
// through the benches' own flag parsing and BenchObservability. Every
// attached run must equal the detached run in its ExperimentResult and its
// BENCH headline, and every attached run's registry counters outside
// acp.prof.* must equal those of the --bench-out run, the least a bench
// attaches (a detached run counts into a run-local registry no one reads).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "../bench/bench_common.h"

namespace acp::exp {
namespace {

using Counters = std::map<std::string, std::uint64_t>;

struct Arm {
  ExperimentResult result;
  obs::BenchReport report;
  Counters counters;  ///< empty when detached
};

/// Runs `trial` the way a bench does when given `flags`.
Arm run_arm(const Trial& trial, const std::vector<std::string>& flags) {
  std::vector<std::string> args{"sink_invariance", "--jobs", "1"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const benchx::BenchOptions opt =
      benchx::parse_options(static_cast<int>(argv.size()), argv.data());

  benchx::BenchObservability bobs("sink_invariance", opt);
  Trial t = trial;
  t.config.obs = bobs.get();
  t.config.timeline = opt.timeline_config();
  Arm arm;
  arm.result = bobs.run_trials({t}).front().result;
  ::testing::internal::CaptureStdout();  // the sinks' "(saved …)" lines and --report
  bobs.finish();
  ::testing::internal::GetCapturedStdout();
  arm.report = bobs.make_report();
  if (const obs::Observability* o = bobs.get()) {
    o->metrics.for_each_counter(
        [&](const std::string& name, const obs::Labels& labels, const obs::Counter& c) {
          if (name.rfind("acp.prof.", 0) != 0) arm.counters[name + labels.render()] = c.value();
        });
  }
  return arm;
}

void expect_same_series(const util::TimeSeries& a, const util::TimeSeries& b,
                        const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.time_at(i), b.time_at(i)) << what << " point " << i;
    EXPECT_EQ(a.value_at(i), b.value_at(i)) << what << " point " << i;
  }
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.overhead_per_minute, b.overhead_per_minute);
  EXPECT_EQ(a.probe_rate_per_minute, b.probe_rate_per_minute);
  EXPECT_EQ(a.state_update_rate_per_minute, b.state_update_rate_per_minute);
  EXPECT_EQ(a.mean_phi, b.mean_phi);
  EXPECT_EQ(a.mean_candidates_qualified, b.mean_candidates_qualified);
  expect_same_series(a.success_series, b.success_series, "success_series");
  expect_same_series(a.alpha_series, b.alpha_series, "alpha_series");
  EXPECT_EQ(a.peak_active_sessions, b.peak_active_sessions);
  EXPECT_EQ(a.component_migrations, b.component_migrations);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.sessions_lost, b.sessions_lost);
  EXPECT_EQ(a.session_survival_rate, b.session_survival_rate);
  EXPECT_EQ(a.sessions_repaired, b.sessions_repaired);
  EXPECT_EQ(a.probe_retries, b.probe_retries);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.deputy_reelections, b.deputy_reelections);
  EXPECT_EQ(a.transients_reclaimed, b.transients_reclaimed);
}

void check_sinks(const std::string& world, const SystemConfig& sys_cfg) {
  const Fabric fabric = build_fabric(sys_cfg);
  Trial trial;
  trial.fabric = &fabric;
  trial.system = &sys_cfg;
  trial.config.algorithm = Algorithm::kAcp;
  trial.config.duration_minutes = 5.0;
  trial.config.schedule = {{0.0, 60.0}};
  trial.config.sample_period_minutes = 1.0;

  const std::string dir = ::testing::TempDir() + "sink_invariance_" + world + "_";
  const Arm detached = run_arm(trial, {"--no-bench-out"});
  ASSERT_GT(detached.result.requests, 20u);
  ASSERT_GT(detached.result.successes, 0u);

  // The first arm's counters are the reference for the rest.
  const std::vector<std::vector<std::string>> sinks{
      {"--bench-out", dir + "bench.json"},
      {"--no-bench-out", "--metrics-out", dir + "metrics.json"},
      {"--no-bench-out", "--trace-out", dir + "trace.jsonl"},
      {"--no-bench-out", "--timeline-out", dir + "timeline.jsonl", "--sample-interval",
       "10"},
      {"--no-bench-out", "--attribution-out", dir + "attr.jsonl"},
      {"--no-bench-out", "--report"},
  };
  Counters reference;
  for (const auto& flags : sinks) {
    std::string label;
    for (const std::string& f : flags) label += f + " ";
    SCOPED_TRACE(label);
    const Arm arm = run_arm(trial, flags);
    expect_same_result(arm.result, detached.result);
    EXPECT_EQ(arm.report.runs, detached.report.runs);
    EXPECT_EQ(arm.report.success_rate, detached.report.success_rate);
    EXPECT_EQ(arm.report.overhead_per_minute, detached.report.overhead_per_minute);
    EXPECT_EQ(arm.report.mean_phi, detached.report.mean_phi);
    ASSERT_FALSE(arm.counters.empty());
    if (reference.empty()) reference = arm.counters;
    EXPECT_EQ(arm.counters, reference);
  }
  for (const char* file : {"bench.json", "metrics.json", "trace.jsonl", "timeline.jsonl",
                           "attr.jsonl"}) {
    std::remove((dir + file).c_str());
  }
}

TEST(SinkInvariance, NoSinkChangesASimNumberOnAnInetMesh) {
  SystemConfig cfg;
  cfg.topology.node_count = 400;
  cfg.overlay.member_count = 60;
  cfg.components_per_node = 3;
  check_sinks("inet", cfg);
}

TEST(SinkInvariance, NoSinkChangesASimNumberOnASmallTorus) {
  SystemConfig cfg;
  cfg.torus_rows = 8;
  cfg.torus_cols = 10;
  cfg.components_per_node = 3;
  check_sinks("torus", cfg);
}

}  // namespace
}  // namespace acp::exp
