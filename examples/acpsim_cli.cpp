// acpsim — command-line experiment runner.
//
// Runs any single experiment of the evaluation from flags and prints the
// paper-style metrics, without writing C++. Examples:
//
//   acpsim --algorithm ACP --nodes 400 --rate 80 --alpha 0.3 --minutes 30
//   acpsim --algorithm Optimal --nodes 200 --rate 60
//   acpsim --algorithm ACP --adaptive --target 0.9
//          --schedule 0:40,50:80,100:60 --minutes 150   (one command)
//   acpsim --algorithm ACP --migration --skew 0.8
//
// Flags (defaults in brackets):
//   --algorithm NAME   ACP | Optimal | Random | Static | SP | RP   [ACP]
//   --nodes N          overlay size                                 [400]
//   --ip-nodes N       IP topology size                             [3200]
//   --rate R           requests/minute                              [80]
//   --schedule S       piecewise rate "min:rate,min:rate,..."       (overrides --rate)
//   --alpha A          fixed probing ratio                          [0.3]
//   --adaptive         enable the probing-ratio tuner               [off]
//   --pi               use the PI controller instead of profiling   [off]
//   --target T         tuner target success rate                    [0.9]
//   --minutes M        simulated duration                           [30]
//   --warmup M         measurement warm-up minutes                  [0]
//   --seed S           system seed                                  [42]
//   --run-seed S       workload seed                                [7]
//   --qos-scale F      QoS strictness multiplier                    [1.0]
//   --policy-frac F    fraction of requests with strict policy      [0]
//   --migration        enable component migration                   [off]
//   --skew Z           placement skew (Zipf exponent)               [0]
//   --repeat N         run N workload seeds, report mean±stddev     [1]
//   --csv PATH         also save the u(t) series as CSV
//   --trace-out PATH   stream probe-lifecycle trace spans as JSONL
//   --timeline-out PATH stream sim-time telemetry samples as JSONL
//   --sample-interval S timeline sample interval in sim seconds       [30]
//   --metrics-out PATH save end-of-run metrics snapshot as JSON
//   --report           print a human-readable metrics report
// Any other flag is an error: it is named with the flags above, exit 2.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "exp/experiment.h"
#include "exp/repeated.h"
#include "obs/bench_report.h"
#include "obs/observability.h"
#include "obs/report.h"
#include "util/flags.h"
#include "util/resource.h"
#include "util/table.h"

using namespace acp;

namespace {

std::vector<workload::RateStep> parse_schedule(const std::string& spec, double fallback_rate) {
  if (spec.empty()) return {{0.0, fallback_rate}};
  std::vector<workload::RateStep> steps;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const auto comma = spec.find(',', pos);
    const std::string item = spec.substr(pos, comma == std::string::npos ? spec.npos : comma - pos);
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      throw PreconditionError("bad --schedule item (want min:rate): " + item);
    }
    steps.push_back({std::stod(item.substr(0, colon)), std::stod(item.substr(colon + 1))});
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return steps;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);

  exp::SystemConfig sys_cfg;
  sys_cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  sys_cfg.topology.node_count = static_cast<std::size_t>(flags.get_int("ip-nodes", 3200));
  sys_cfg.overlay.member_count = static_cast<std::size_t>(flags.get_int("nodes", 400));
  sys_cfg.placement_skew = flags.get_double("skew", 0.0);
  sys_cfg.randomize_attributes = flags.get_double("policy-frac", 0.0) > 0.0;

  exp::ExperimentConfig cfg;
  cfg.algorithm = exp::algorithm_from_name(flags.get_string("algorithm", "ACP"));
  cfg.duration_minutes = flags.get_double("minutes", 30.0);
  cfg.warmup_minutes = flags.get_double("warmup", 0.0);
  cfg.alpha = flags.get_double("alpha", 0.3);
  cfg.adaptive_alpha = flags.get_bool("adaptive", false);
  cfg.tuner.mode =
      flags.get_bool("pi", false) ? core::TuningMode::kPi : core::TuningMode::kProfile;
  cfg.tuner.target_success_rate = flags.get_double("target", 0.9);
  cfg.schedule = parse_schedule(flags.get_string("schedule", ""), flags.get_double("rate", 80.0));
  cfg.workload.qos_scale = flags.get_double("qos-scale", 1.0);
  cfg.workload.strict_policy_fraction = flags.get_double("policy-frac", 0.0);
  cfg.enable_migration = flags.get_bool("migration", false);
  cfg.run_seed = static_cast<std::uint64_t>(flags.get_int("run-seed", 7));
  const std::string csv = flags.get_string("csv", "");
  const auto repeat = static_cast<std::size_t>(flags.get_int("repeat", 1));
  const std::string trace_out = flags.get_string("trace-out", "");
  const std::string timeline_out = flags.get_string("timeline-out", "");
  const double sample_interval_s = flags.get_double("sample-interval", 30.0);
  const std::string metrics_out = flags.get_string("metrics-out", "");
  const bool report = flags.get_bool("report", false);
  flags.exit_on_unknown_flags();
  util::Flags::require_writable_path("trace-out", trace_out);
  util::Flags::require_writable_path("timeline-out", timeline_out);
  util::Flags::require_writable_path("metrics-out", metrics_out);

  obs::Observability obs;
  const bool observing =
      !trace_out.empty() || !timeline_out.empty() || !metrics_out.empty() || report;
  if (!trace_out.empty()) {
    obs.tracer.open(trace_out);
    obs.tracer.event("trace_header")
        .field("bench", "acpsim")
        .field("git_sha", obs::current_git_sha())
        .field("seed", sys_cfg.seed)
        .field("run_seed", cfg.run_seed);
  }
  if (!timeline_out.empty()) {
    obs.timeline.open(timeline_out);
    obs.timeline.header("acpsim", obs::current_git_sha(), sys_cfg.seed, false);
    cfg.timeline.sample_interval_s = sample_interval_s;
  }
  if (observing) {
    // Run identity in every snapshot: a metrics file names the commit and
    // seeds that produced it.
    obs.metrics.set_meta("git_sha", obs::current_git_sha());
    obs.metrics.set_meta("seed", std::to_string(sys_cfg.seed));
    obs.metrics.set_meta("run_seed", std::to_string(cfg.run_seed));
    cfg.obs = &obs;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  const auto flush_obs = [&] {
    if (observing) {
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
      const auto events = obs.metrics.counter_family_total(obs::metric::kSimEventsExecuted);
      std::printf("Host: %.0f events/s over %.2fs wall, peak RSS %.1f MB\n",
                  wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0, wall_s,
                  static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0));
    }
    if (!metrics_out.empty()) {
      obs.metrics.save_json(metrics_out);
      std::printf("(saved metrics to %s)\n", metrics_out.c_str());
    }
    if (report) obs::write_report(std::cout, obs.metrics);
    if (!trace_out.empty()) {
      const auto n = static_cast<unsigned long long>(obs.tracer.events_emitted());
      obs.tracer.close();
      std::printf("(saved %llu trace events to %s)\n", n, trace_out.c_str());
    }
    if (!timeline_out.empty()) {
      const auto n = static_cast<unsigned long long>(obs.timeline.rows_emitted());
      obs.timeline.close();
      std::printf("(saved %llu timeline rows to %s)\n", n, timeline_out.c_str());
    }
  };

  std::printf("acpsim: %s on %zu nodes (%zu-host IP net), %.0f min",
              exp::algorithm_name(cfg.algorithm).c_str(), sys_cfg.overlay.member_count,
              sys_cfg.topology.node_count, cfg.duration_minutes);
  if (cfg.adaptive_alpha) {
    std::printf(", adaptive alpha (%s, target %.0f%%)\n",
                cfg.tuner.mode == core::TuningMode::kPi ? "PI" : "profile",
                cfg.tuner.target_success_rate * 100.0);
  } else {
    std::printf(", alpha=%.2f\n", cfg.alpha);
  }

  const auto fabric = exp::build_fabric(sys_cfg);
  if (repeat > 1) {
    const auto agg = exp::run_repeated(fabric, sys_cfg, cfg, repeat, cfg.run_seed);
    std::printf("\n%zu seeds:\n", agg.runs);
    std::printf("  success %%:   %.2f ± %.2f  [%.2f, %.2f]\n", agg.success_rate.mean * 100.0,
                agg.success_rate.stddev * 100.0, agg.success_rate.min * 100.0,
                agg.success_rate.max * 100.0);
    std::printf("  overhead/min: %.1f ± %.1f\n", agg.overhead_per_minute.mean,
                agg.overhead_per_minute.stddev);
    std::printf("  mean phi:     %.3f ± %.3f\n", agg.mean_phi.mean, agg.mean_phi.stddev);
    flush_obs();
    return 0;
  }
  const auto res = exp::run_experiment(fabric, sys_cfg, cfg);

  util::Table series({"minute", "success %", "alpha"});
  for (std::size_t i = 0; i < res.success_series.size(); ++i) {
    const double t = res.success_series.time_at(i);
    series.add_row({t, res.success_series.value_at(i) * 100.0,
                    cfg.adaptive_alpha ? res.alpha_series.value_at_time(t, cfg.tuner.base_alpha)
                                       : cfg.alpha});
  }
  series.print(std::cout);
  if (!csv.empty()) {
    series.save_csv(csv);
    std::printf("(saved %s)\n", csv.c_str());
  }

  std::printf("\nRequests: %llu   Success: %llu (%.2f%%)\n",
              static_cast<unsigned long long>(res.requests),
              static_cast<unsigned long long>(res.successes), res.success_rate * 100.0);
  std::printf("Overhead: %.1f msg/min (probes %.1f + state updates %.1f)\n",
              res.overhead_per_minute, res.probe_rate_per_minute,
              res.state_update_rate_per_minute);
  std::printf("Mean phi of placements: %.3f   Peak sessions: %llu\n", res.mean_phi,
              static_cast<unsigned long long>(res.peak_active_sessions));
  if (cfg.enable_migration) {
    std::printf("Component migrations: %llu\n",
                static_cast<unsigned long long>(res.component_migrations));
  }
  flush_obs();
  return 0;
}
