// Tests of the benchmark's own logic: medians of repeated builds, output
// checks and failure counting, and a tiny-world run of every workload shape.
#include "perfbench.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/observability.h"
#include "util/error.h"

namespace acp::perfbench {
namespace {

TrialOutcome good_trial() {
  TrialOutcome t;
  t.requests = 100;
  t.successes = 80;
  t.sessions_completed = 70;
  t.sessions_lost = 0;
  t.success_pct = 80.0;
  t.mean_phi = 0.8;
  t.msgs_per_request = 50.0;
  return t;
}

// setup_s is the median over every build of a run's rounds: rounds append
// their builds, and the world each round returns is the last one built.
TEST(SetupTiming, EveryRoundAddsItsBuilds) {
  const Workload w = make_workload("xl_serial", 42, /*tiny=*/true);
  SetupTiming s;
  time_setups(w.system, 5, 0.0, 9, s);
  EXPECT_EQ(s.total_s.count(), 5u);
  const exp::Fabric second = time_setups(w.system, 2, 0.0, 9, s);
  EXPECT_EQ(s.total_s.count(), 7u);
  EXPECT_EQ(s.fabric_s.count(), 7u);
  EXPECT_EQ(s.deployment_s.count(), 7u);
  time_setups(w.system, 1, 1e9, 4, s);  // max_builds caps a round
  EXPECT_EQ(s.total_s.count(), 11u);
  EXPECT_GT(s.fabric_s.percentile(0.0), 0.0);
  EXPECT_GT(s.deployment_s.percentile(0.0), 0.0);
  ASSERT_NE(second.mesh, nullptr);
  EXPECT_EQ(second.ip.node_count(), 80u);
  const TrialOutcome t = run_trial(second, w.system, w.experiment);
  EXPECT_TRUE(check_trial(t).empty());
}

TEST(Checks, AcceptAConsistentTrial) {
  EXPECT_TRUE(check_trial(good_trial()).empty());
}

TEST(Checks, FlagEveryBrokenInvariant) {
  TrialOutcome t = good_trial();
  t.successes = 101;
  EXPECT_EQ(check_trial(t).size(), 1u);
  t = good_trial();
  t.sessions_completed = 60;
  t.sessions_lost = 30;
  EXPECT_EQ(check_trial(t).size(), 1u);
  t = good_trial();
  t.requests = 0;
  t.successes = 0;
  t.sessions_completed = 0;
  EXPECT_FALSE(check_trial(t).empty());
  t = good_trial();
  t.mean_phi = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(check_trial(t).size(), 1u);
}

TEST(Checks, DeterministicOutputsMustRepeatBitForBit) {
  const TrialOutcome a = good_trial();
  TrialOutcome b = a;
  b.wall_s = 99.0;  // host cost may differ
  EXPECT_TRUE(same_outputs(a, b));
  b.mean_phi = std::nextafter(a.mean_phi, 1.0);
  EXPECT_FALSE(same_outputs(a, b));
}

TEST(Tally, ABrokenResultCountsEveryRequestFailed) {
  const std::vector<TrialOutcome> trials = {good_trial(), good_trial(), good_trial()};
  const Tally ok = tally(trials, {});
  EXPECT_TRUE(ok.correct);
  EXPECT_EQ(ok.attempted, 300u);
  EXPECT_EQ(ok.failed, 0u);

  TrialOutcome broken = good_trial();
  broken.successes = 200;
  std::vector<TrialOutcome> with_broken = trials;
  with_broken.push_back(broken);
  const Tally bad = tally(with_broken, check_trial(broken));
  EXPECT_FALSE(bad.correct);
  EXPECT_EQ(bad.attempted, 400u);
  EXPECT_EQ(bad.failed, 400u);

  const Tally none = tally({}, {"run aborted"});
  EXPECT_FALSE(none.correct);
  EXPECT_EQ(none.attempted, 1u);
  EXPECT_EQ(none.failed, 1u);

  const std::string json = result_json(bad, {{"success_pct", 80.0}});
  EXPECT_EQ(json,
            "{\"correct\": false, \"attempted\": 400, \"failed\": 400, "
            "\"metrics\": {\"success_pct\": 80}}");
}

TEST(ResultJson, KeepsEveryDigit) {
  const std::string json = result_json(Tally{}, {{"requests_per_s", 0.1}});
  EXPECT_NE(json.find("0.10000000000000001"), std::string::npos);
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(make_workload("nope", 42), PreconditionError);
}

TEST(Workloads, SeedDrivesTheRequestStreamsOnly) {
  const Workload a = make_workload("xl_serial", 1);
  const Workload b = make_workload("xl_serial", 2);
  EXPECT_EQ(a.system.seed, b.system.seed);
  EXPECT_NE(a.experiment.run_seed, b.experiment.run_seed);
  EXPECT_EQ(make_workload("xl_serial", 1).stream_run_seeds, a.stream_run_seeds);
  for (const Workload& w : {a, b, make_workload("fig8_observed", 1)}) {
    ASSERT_FALSE(w.stream_run_seeds.empty());
    EXPECT_EQ(w.stream_run_seeds.front(), w.experiment.run_seed);
  }
  EXPECT_EQ(a.stream_run_seeds.size(), 4u);
  EXPECT_EQ(make_workload("fig8_observed", 1).stream_run_seeds.size(), 8u);
  for (std::uint64_t s : a.stream_run_seeds) {
    EXPECT_EQ(std::count(b.stream_run_seeds.begin(), b.stream_run_seeds.end(), s), 0);
  }
}

// A pass over several request streams counts as one trial over all of
// their requests.
TEST(Combine, TakesRatesOverEveryStreamsRequests) {
  TrialOutcome a = good_trial();
  a.overhead_per_minute = 1000.0;
  a.wall_s = 1.0;
  TrialOutcome b;
  b.requests = 300;
  b.successes = 120;
  b.sessions_completed = 100;
  b.sessions_lost = 10;
  b.success_pct = 40.0;
  b.mean_phi = 0.6;
  b.msgs_per_request = 30.0;
  b.overhead_per_minute = 3000.0;
  b.wall_s = 2.5;
  const TrialOutcome all = combine({a, b});
  EXPECT_EQ(all.requests, 400u);
  EXPECT_EQ(all.successes, 200u);
  EXPECT_EQ(all.sessions_completed, 170u);
  EXPECT_EQ(all.sessions_lost, 10u);
  EXPECT_DOUBLE_EQ(all.success_pct, 50.0);
  EXPECT_DOUBLE_EQ(all.mean_phi, (0.8 * 80 + 0.6 * 120) / 200.0);
  EXPECT_DOUBLE_EQ(all.msgs_per_request, (50.0 * 100 + 30.0 * 300) / 400.0);
  EXPECT_DOUBLE_EQ(all.overhead_per_minute, 2000.0);
  EXPECT_DOUBLE_EQ(all.wall_s, 3.5);
  EXPECT_TRUE(check_trial(all).empty());
  EXPECT_TRUE(same_outputs(combine({a}), a));
}

// At seed 42, xl_serial is fig7_xl --quick's ACP@240 trial and reproduces
// its row: 73.8% success at 12,492 messages per minute.
TEST(Workloads, XlSerialReproducesFig7XlQuickRow) {
  const Workload w = make_workload("xl_serial", 42);
  const exp::Fabric fabric = exp::build_fabric(w.system);
  const TrialOutcome t = run_trial(fabric, w.system, w.experiment);
  EXPECT_NEAR(t.success_pct, 73.8, 0.05);
  EXPECT_NEAR(t.overhead_per_minute, 12492.0, 0.5);
}

// A seconds-long run of every workload shape on a tiny world: outputs pass
// the checks and repeat exactly, and the windowed engine's lineage is the
// same on 1 and 4 lanes.
TEST(TinySmoke, EveryWorkloadShapeRunsAndRepeats) {
  for (const std::string& name : workload_names()) {
    SCOPED_TRACE(name);
    const Workload w = make_workload(name, 7, /*tiny=*/true);
    const exp::Fabric fabric = exp::build_fabric(w.system);
    obs::Observability obs;
    exp::ExperimentConfig cfg = w.experiment;
    cfg.obs = w.observed ? &obs : nullptr;
    const TrialOutcome first = run_trial(fabric, w.system, cfg);
    EXPECT_TRUE(check_trial(first).empty());
    EXPECT_GT(first.successes, 0u);
    EXPECT_GT(first.mean_phi, 0.0);
    cfg.obs = nullptr;
    EXPECT_TRUE(same_outputs(first, run_trial(fabric, w.system, cfg)));
    if (w.experiment.shards > 0) {
      cfg.shards = 1;
      EXPECT_TRUE(same_outputs(first, run_trial(fabric, w.system, cfg)));
    }
    const DirectProbes p = run_direct_probes(fabric, w, 8);
    EXPECT_EQ(p.searched, 8u);
    EXPECT_GT(p.composed, 0u);
    EXPECT_GT(p.cancel_request_us, 0.0);
    EXPECT_GT(p.release_session_us, 0.0);
    EXPECT_GT(p.guided_search_ms, 0.0);
  }
}

TEST(SpanLog, WritesOneLinePerSpanWithParents) {
  SpanLog log;
  const std::size_t root = log.begin("root");
  const std::size_t child = log.begin("child", root);
  EXPECT_GE(log.end(child), 0.0);
  log.end(root);
  std::ostringstream os;
  log.write_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"id\": 0, \"parent\": null, \"name\": \"root\""), std::string::npos);
  EXPECT_NE(out.find("{\"id\": 1, \"parent\": 0, \"name\": \"child\""), std::string::npos);
}

}  // namespace
}  // namespace acp::perfbench
