// acp_perfbench — the repository benchmark's measuring program, one
// workload per process:
//
//   acp_perfbench --workload xl_serial --seed 42 --seconds 55 --trace 0
//
// --trace 0 (timed, observability as the workload defines it): rounds of
// repeated world builds (for setup_s) and one trial of the workload, on the
// round's last built world, cycling through the workload's request streams.
// Rounds repeat while the next is forecast to end within --seconds, and at
// least once per stream; the end-to-end metrics cover one pass over the
// streams, each stream's trial wall being its median over the repeats.
// --trace 1 (traced): trials of the first stream only: one with
// obs::Observability attached and the benchmark's spans on, one detached,
// one on --shards 1, one serial (when the workload is sharded), then direct
// calls into stream and core on a fresh deployment; prints the per-layer
// metrics.
//
// Every trial is checked (see check_trial) and a stream's deterministic
// outputs must repeat exactly. The last stdout line is the result JSON;
// on a failed check it still prints, with every request counted failed,
// and the exit code is 1. Usage errors exit 2 without a result.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "perfbench.h"
#include "obs/observability.h"
#include "sim/counters.h"
#include "util/flags.h"
#include "util/resource.h"
#include "util/stats.h"

namespace {

using namespace acp;
using perfbench::MetricList;
using perfbench::TrialOutcome;

constexpr std::size_t kMaxTrials = 200;
// Timed runs rebuild the world before every trial, so setup_s samples the
// whole measurement, not just its first second.
constexpr double kRoundBuildSeconds = 0.5;
constexpr std::size_t kRoundMaxBuilds = 2000;
// The traced run's builds come first; its trials run on the last one.
constexpr std::size_t kMinBuilds = 7;
constexpr double kMinBuildSeconds = 1.0;
constexpr std::size_t kMaxBuilds = 201;
constexpr std::size_t kProbeSample = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 55.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

void log_trial(const char* label, const TrialOutcome& t) {
  std::fprintf(stderr,
               "perfbench: %-9s requests=%llu success=%.4f%% phi=%.6f msgs/req=%.4f "
               "overhead=%.1f msg/min wall=%.3fs cpu=%.3fs\n",
               label, static_cast<unsigned long long>(t.requests), t.success_pct, t.mean_phi,
               t.msgs_per_request, t.overhead_per_minute, t.wall_s, t.cpu_s);
}

/// Checks one trial and, when given, that it reproduces `ref` exactly.
void check(const std::string& label, const TrialOutcome& t, const TrialOutcome* ref,
           std::vector<std::string>& problems) {
  for (const std::string& p : perfbench::check_trial(t)) problems.push_back(label + ": " + p);
  if (ref != nullptr && !perfbench::same_outputs(*ref, t)) {
    problems.push_back(label + ": deterministic outputs differ from its reference run");
  }
}

TrialOutcome run(const exp::Fabric& fabric, const perfbench::Workload& w, std::size_t stream,
                 std::size_t shards, obs::Observability* bundle) {
  exp::ExperimentConfig cfg = w.experiment;
  cfg.run_seed = w.stream_run_seeds.at(stream);
  cfg.shards = shards;
  cfg.obs = bundle;
  return perfbench::run_trial(fabric, w.system, cfg);
}

MetricList timed(const perfbench::Workload& w, const Options& opt,
                 std::vector<TrialOutcome>& trials, std::vector<std::string>& problems) {
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  const std::size_t streams = w.stream_run_seeds.size();
  perfbench::SetupTiming setup;
  std::vector<util::Percentiles> walls(streams);
  util::Percentiles rounds;
  while (trials.size() < kMaxTrials &&
         (trials.size() < streams || elapsed() + rounds.median() <= opt.seconds)) {
    const double round_start = elapsed();
    const std::size_t stream = trials.size() % streams;
    // The trial runs on the round's last build, so no other world is alive
    // beside it and peak_rss_mb is the trial's.
    const exp::Fabric fabric =
        perfbench::time_setups(w.system, 1, kRoundBuildSeconds, kRoundMaxBuilds, setup);
    // A fresh bundle per trial, so every repeat does the same work.
    std::unique_ptr<obs::Observability> bundle;
    if (w.observed) bundle = std::make_unique<obs::Observability>();
    trials.push_back(run(fabric, w, stream, w.experiment.shards, bundle.get()));
    const TrialOutcome& t = trials.back();
    const std::string label =
        "trial " + std::to_string(trials.size()) + " (stream " + std::to_string(stream) + ")";
    log_trial(label.c_str(), t);
    check(label, t, trials.size() > streams ? &trials[stream] : nullptr, problems);
    walls[stream].add(t.wall_s);
    rounds.add(elapsed() - round_start);
  }
  std::vector<TrialOutcome> pass(trials.begin(), trials.begin() + streams);
  for (std::size_t s = 0; s < streams; ++s) pass[s].wall_s = walls[s].median();
  const TrialOutcome all = perfbench::combine(pass);
  const double setup_s = setup.total_s.median();
  std::fprintf(stderr,
               "perfbench: setup median %.6fs over %zu builds, %zu trials of %zu streams in "
               "%.1fs\n",
               setup_s, setup.total_s.count(), trials.size(), streams, elapsed());
  log_trial("pass", all);
  return {
      {"requests_per_s", static_cast<double>(all.requests) / all.wall_s},
      {"setup_s", setup_s},
      {"peak_rss_mb", static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0)},
      {"success_pct", all.success_pct},
      {"mean_phi", all.mean_phi},
      {"msgs_per_request", all.msgs_per_request},
  };
}

MetricList traced(const perfbench::Workload& w, const Options& opt,
                  std::vector<TrialOutcome>& trials, std::vector<std::string>& problems) {
  perfbench::SpanLog spans;
  const std::size_t root = spans.begin("perfbench." + w.name);

  std::size_t span = spans.begin("setup.repeated_builds", root);
  perfbench::SetupTiming setup;
  const exp::Fabric fabric =
      perfbench::time_setups(w.system, kMinBuilds, kMinBuildSeconds, kMaxBuilds, setup);
  spans.end(span);

  const std::size_t shards = w.experiment.shards;
  obs::Observability bundle;
  span = spans.begin("exp.run_experiment.attached", root);
  const TrialOutcome att = run(fabric, w, 0, shards, &bundle);
  spans.end(span);
  span = spans.begin("exp.run_experiment.detached", root);
  const TrialOutcome det = run(fabric, w, 0, shards, nullptr);
  spans.end(span);
  span = spans.begin("exp.run_experiment.shards1", root);
  const TrialOutcome shard1 = run(fabric, w, 0, 1, nullptr);
  spans.end(span);
  TrialOutcome serial = det;
  if (shards != 0) {
    span = spans.begin("exp.run_experiment.serial", root);
    serial = run(fabric, w, 0, 0, nullptr);
    spans.end(span);
  }
  trials = {att, det, shard1};
  if (shards != 0) trials.push_back(serial);
  log_trial("attached", att);
  log_trial("detached", det);
  log_trial("shards1", shard1);
  if (shards != 0) log_trial("serial", serial);
  check("attached", att, nullptr, problems);
  check("detached", det, &att, problems);
  // Windowed-engine outputs are identical for every N >= 1; the serial
  // engine is its own lineage.
  check("shards1", shard1, shards != 0 ? &det : nullptr, problems);
  if (shards != 0) check("serial", serial, nullptr, problems);

  span = spans.begin("direct_probes", root);
  const perfbench::DirectProbes probes = perfbench::run_direct_probes(fabric, w, kProbeSample);
  spans.end(span);
  spans.end(root);
  if (!opt.spans_out.empty()) {
    std::ofstream os(opt.spans_out);
    spans.write_jsonl(os);
    if (!os) problems.push_back("cannot write spans to " + opt.spans_out);
  }

  const obs::MetricsRegistry& m = bundle.metrics;
  const auto scope = [&m](const char* name) -> const obs::Histogram* {
    return m.find_histogram(obs::metric::kProfWall, obs::Labels{{"scope", name}});
  };
  const auto scope_s = [&scope](const char* name) {
    const obs::Histogram* h = scope(name);
    return h == nullptr ? 0.0 : h->sum();
  };
  const auto scope_calls = [&scope](const char* name) {
    const obs::Histogram* h = scope(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->count());
  };
  const auto scope_us = [&scope](const char* name, double q) {
    const obs::Histogram* h = scope(name);
    return h == nullptr ? 0.0 : h->quantile(q) * 1e6;
  };
  const auto count = [&m](const std::string& name) {
    return static_cast<double>(m.counter_family_total(name));
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const double spawned = count(obs::metric::kProbeSpawned);
  const double returned = count(obs::metric::kProbeReturned);
  const double evaluated = count(obs::metric::kCandidatesEvaluated);
  const double events = count(obs::metric::kSimEventsExecuted);
  namespace ps = obs::prof_scope;
  return {
      {"exp.run_s", att.wall_s},
      {"exp.cpu_util", ratio(att.cpu_s, att.wall_s)},
      {"exp.requests", static_cast<double>(att.requests)},
      {"net.build_fabric_s", setup.fabric_s.median()},
      {"stream.build_deployment_s", setup.deployment_s.median()},
      {"stream.cancel_request_us", probes.cancel_request_us},
      {"stream.release_session_us", probes.release_session_us},
      {"core.finalize_s", scope_s(ps::kProbingFinalize)},
      {"core.finalize_calls", scope_calls(ps::kProbingFinalize)},
      {"core.finalize_us_p50", scope_us(ps::kProbingFinalize, 0.5)},
      {"core.finalize_us_p99", scope_us(ps::kProbingFinalize, 0.99)},
      {"core.guided_search_ms", probes.guided_search_ms},
      {"core.process_probe_s", scope_s(ps::kProbingProcess)},
      {"core.process_probe_calls", scope_calls(ps::kProbingProcess)},
      {"core.rank_s", scope_s(ps::kProbingRank)},
      {"core.probes_spawned", spawned},
      {"core.probes_returned", returned},
      {"core.probe_deaths", count(obs::metric::kProbeDeaths)},
      {"core.candidates_evaluated", evaluated},
      {"stream.confirmations", count(sim::canonical_metric_name(sim::counter::kConfirmation))},
      {"core.probe_yield", ratio(returned, spawned)},
      {"core.candidate_yield", ratio(spawned, evaluated)},
      {"discovery.lookup_s", scope_s(ps::kDiscoveryLookup)},
      {"discovery.lookups", count(sim::canonical_metric_name(sim::counter::kDiscovery))},
      {"state.check_sweep_s", scope_s(ps::kStateCheckSweep)},
      {"state.publish_s", scope_s(ps::kStatePublish)},
      {"state.updates", count(obs::metric::kStateUpdates)},
      {"sim.dispatch_s", scope_s(ps::kSimDispatch)},
      {"sim.events", events},
      {"sim.events_per_s", ratio(events, att.wall_s)},
      {"sim.shard1_over_serial", ratio(shard1.wall_s, serial.wall_s)},
      {"obs.tax", ratio(att.wall_s, det.wall_s)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  perfbench::Workload w;
  try {
    util::Flags flags(argc, argv);
    opt.workload = flags.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    opt.seconds = flags.get_double("seconds", opt.seconds);
    opt.trace = flags.get_int("trace", 0) != 0;
    opt.tiny = flags.get_bool("tiny", false);
    opt.spans_out = flags.get_string("spans-out", "");
    if (!flags.unknown_flags().empty()) {
      throw std::invalid_argument("unknown flag --" + flags.unknown_flags().front());
    }
    w = perfbench::make_workload(opt.workload, opt.seed, opt.tiny);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acp_perfbench: %s\n", e.what());
    return 2;
  }

  std::vector<TrialOutcome> trials;
  std::vector<std::string> problems;
  MetricList metrics;
  try {
    metrics = opt.trace ? traced(w, opt, trials, problems) : timed(w, opt, trials, problems);
  } catch (const std::exception& e) {
    problems.push_back(std::string("run aborted: ") + e.what());
  }
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) problems.push_back("metric " + name + " is not finite");
  }
  for (const std::string& p : problems) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  const perfbench::Tally t = perfbench::tally(trials, problems);
  std::printf("%s\n", perfbench::result_json(t, metrics).c_str());
  return t.correct ? 0 : 1;
}
