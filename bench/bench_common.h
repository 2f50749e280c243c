// Shared helpers for the figure-reproduction benches.
//
// Each bench binary regenerates one figure group of the paper's evaluation
// (Sec. 4.2) and prints the same series the paper plots. Absolute numbers
// depend on the simulated substrate (as they did on the authors'); the
// *shapes* — orderings, crossovers, saturation points — are the
// reproduction targets recorded in EXPERIMENTS.md.
//
// Perf trajectory: every bench also emits a schema-versioned
// BENCH_<name>.json (obs/bench_report.h) capturing wall-clock totals,
// per-scope timing quantiles, and the headline sim metrics. On by default
// under --quick (the CI perf-smoke configuration), opt-in/out anywhere via
// --bench-out[=PATH] / --no-bench-out.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "exp/experiment.h"
#include "exp/parallel.h"
#include "obs/bench_report.h"
#include "obs/guard.h"
#include "obs/observability.h"
#include "obs/report.h"
#include "util/flags.h"
#include "util/resource.h"
#include "util/table.h"

namespace acp::benchx {

/// Default evaluation setup shared by all figures (paper Sec. 4.1).
inline exp::SystemConfig default_system_config(std::size_t overlay_nodes, std::uint64_t seed) {
  exp::SystemConfig cfg;
  cfg.seed = seed;
  cfg.topology.node_count = 3200;  // paper: 3200-node power-law IP graph
  cfg.overlay.member_count = overlay_nodes;
  return cfg;
}

/// Smaller setup for --quick runs (CI-friendly).
inline exp::SystemConfig quick_system_config(std::size_t overlay_nodes, std::uint64_t seed) {
  exp::SystemConfig cfg = default_system_config(overlay_nodes, seed);
  cfg.topology.node_count = 1200;
  return cfg;
}

struct BenchOptions {
  bool quick = false;        ///< shrink durations/system for a fast pass
  std::uint64_t seed = 42;
  /// --jobs N: worker-pool width for independent trials (exp/parallel.h).
  /// 0 (the default) means one worker per hardware thread; 1 forces the
  /// serial inline path. Never changes sim results — only wall-clock.
  std::size_t jobs = 0;
  /// --shards N: intra-run PDES sharding (sim/sharded_engine.h). 0 keeps
  /// the serial engine; N >= 1 runs probing algorithms' request cascades on
  /// N shard lanes with results identical for every N >= 1 (but a distinct
  /// lineage from --shards 0; see ExperimentConfig::shards).
  std::size_t shards = 0;
  std::string csv_prefix;    ///< when set, save each table as <prefix><name>.csv
  std::string trace_out;     ///< --trace-out: probe-lifecycle JSONL stream
  std::string timeline_out;  ///< --timeline-out: sim-time telemetry JSONL stream
  /// --sample-interval: sim seconds between timeline samples. Only read
  /// when --timeline-out is given.
  double sample_interval_s = 30.0;
  std::string metrics_out;   ///< --metrics-out: end-of-run metrics snapshot (JSON)
  /// --attribution-out: per-node/per-function/per-phase cost rows + queue
  /// wait decomposition as JSONL (obs/attribution.h).
  std::string attribution_out;
  bool report = false;       ///< --report: print a human-readable metrics report

  std::string bench_out;     ///< --bench-out=PATH; "" = default BENCH_<name>.json
  bool bench_out_flag = false;      ///< bare --bench-out given
  bool bench_out_disabled = false;  ///< --no-bench-out given

  /// BENCH_<name>.json emission: explicit flag wins; --quick defaults on.
  bool bench_enabled() const {
    return !bench_out_disabled && (bench_out_flag || !bench_out.empty() || quick);
  }

  bool observing() const {
    return !trace_out.empty() || !timeline_out.empty() || !metrics_out.empty() ||
           !attribution_out.empty() || report || bench_enabled();
  }

  /// The sampling config to put on every trial's ExperimentConfig: enabled
  /// exactly when a timeline sink was requested.
  obs::TimelineConfig timeline_config() const {
    obs::TimelineConfig cfg;
    if (!timeline_out.empty()) cfg.sample_interval_s = sample_interval_s;
    return cfg;
  }
};

/// Parses the shared flags from an existing Flags instance — benches with
/// extra flags (e.g. chaos_suite) read their own first, then delegate here.
/// A flag neither set reads exits with status 2 before any trial runs.
inline BenchOptions parse_options(util::Flags& flags) {
  BenchOptions opt;
  opt.quick = flags.get_bool("quick", false);
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  opt.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  opt.shards = static_cast<std::size_t>(flags.get_int("shards", 0));
  opt.csv_prefix = flags.get_string("csv", "");
  opt.trace_out = flags.get_string("trace-out", "");
  opt.timeline_out = flags.get_string("timeline-out", "");
  opt.sample_interval_s = flags.get_double("sample-interval", opt.sample_interval_s);
  opt.metrics_out = flags.get_string("metrics-out", "");
  opt.attribution_out = flags.get_string("attribution-out", "");
  opt.report = flags.get_bool("report", false);
  // --bench-out is tri-state: bare flag ("true"), --no-bench-out ("false"),
  // or an explicit path.
  const std::string bench_out = flags.get_string("bench-out", "");
  if (bench_out == "true") {
    opt.bench_out_flag = true;
  } else if (bench_out == "false") {
    opt.bench_out_disabled = true;
  } else {
    opt.bench_out = bench_out;
  }
  flags.exit_on_unknown_flags();
  util::Flags::require_writable_path("trace-out", opt.trace_out);
  util::Flags::require_writable_path("timeline-out", opt.timeline_out);
  util::Flags::require_writable_path("metrics-out", opt.metrics_out);
  util::Flags::require_writable_path("attribution-out", opt.attribution_out);
  if (!opt.bench_out.empty()) util::Flags::require_writable_path("bench-out", opt.bench_out);
  return opt;
}

inline BenchOptions parse_options(int argc, char** argv) {
  util::Flags flags(argc, argv);
  return parse_options(flags);
}

/// Owns the bench's Observability instance for the duration of a binary.
/// Pass get() into every ExperimentConfig (nullptr when no observability
/// flag was given — the instrumented code paths then cost one branch), call
/// record() on each experiment result so the bench JSON carries headline
/// sim metrics, and call finish() once after the last experiment to flush
/// every sink.
class BenchObservability {
 public:
  BenchObservability(std::string bench_name, const BenchOptions& opt)
      : name_(std::move(bench_name)), opt_(opt),
        wall_start_(std::chrono::steady_clock::now()) {
    if (opt_.shards > 0) report_config_.emplace_back("shards", std::to_string(opt_.shards));
    if (!opt_.trace_out.empty()) {
      obs_.tracer.open(opt_.trace_out);
      // Identity header before any run: the trace is reproducible from its
      // own first line.
      obs_.tracer.event("trace_header")
          .field("bench", name_)
          .field("git_sha", obs::current_git_sha())
          .field("seed", opt_.seed)
          .field("quick", opt_.quick);
    }
    if (!opt_.timeline_out.empty()) {
      obs_.timeline.open(opt_.timeline_out);
      obs_.timeline.header(name_, obs::current_git_sha(), opt_.seed, opt_.quick);
    }
    if (!opt_.attribution_out.empty()) obs_.attribution.set_enabled(true);
    if (opt_.observing()) {
      obs_.metrics.set_meta("bench", name_);
      obs_.metrics.set_meta("git_sha", obs::current_git_sha());
      obs_.metrics.set_meta("seed", std::to_string(opt_.seed));
      obs_.metrics.set_meta("quick", opt_.quick ? "true" : "false");
      if (!opt_.metrics_out.empty()) {
        // Abnormal-exit insurance: std::terminate still leaves a snapshot
        // (the tracer registers its own hook in open()).
        guard_token_ = obs::on_abnormal_exit([this] {
          obs_.metrics.set_meta("truncated", "true");
          try {
            obs_.metrics.save_json(opt_.metrics_out);
          } catch (...) {
          }
        });
      }
    }
  }

  ~BenchObservability() {
    if (guard_token_ != 0) obs::cancel_abnormal_exit(guard_token_);
  }

  obs::Observability* get() { return opt_.observing() ? &obs_ : nullptr; }

  /// Folds one experiment's headline metrics into the bench report.
  void record(const exp::ExperimentResult& res) {
    ++runs_;
    success_.add(res.success_rate);
    overhead_.add(res.overhead_per_minute);
    phi_.add(res.mean_phi);
  }

  /// Runs `trials` through the worker pool (width = the bench's --jobs),
  /// records every result's headline metrics and per-trial wall-clock into
  /// the bench report, and returns the results in submission order. Do not
  /// also call record() for these results.
  std::vector<exp::TrialRun> run_trials(const std::vector<exp::Trial>& trials) {
    auto trial_runs = exp::run_trials(trials, opt_.jobs);
    for (const exp::TrialRun& tr : trial_runs) {
      record(tr.result);
      trial_wall_.add(tr.wall_s);
    }
    return trial_runs;
  }

  /// Bench-level configuration recorded in the BENCH json (durations,
  /// rates, sweep ranges — whatever makes the run comparable).
  void add_config(const std::string& key, const std::string& value) {
    report_config_.emplace_back(key, value);
  }

  /// Flushes every sink: metrics JSON snapshot, human-readable report,
  /// trace stream, BENCH_<name>.json. Idempotent enough for end-of-main use.
  void finish() {
    if (trial_wall_.count() > 0) {
      std::printf("(jobs=%zu: %zu trials, wall mean %.3fs min %.3fs max %.3fs)\n",
                  exp::resolve_jobs(opt_.jobs), trial_wall_.count(), trial_wall_.mean(),
                  trial_wall_.min(), trial_wall_.max());
    }
    if (!opt_.observing()) return;
    if (guard_token_ != 0) {
      obs::cancel_abnormal_exit(guard_token_);
      guard_token_ = 0;
    }
    if (!opt_.metrics_out.empty()) {
      obs_.metrics.save_json(opt_.metrics_out);
      std::printf("(saved metrics to %s)\n", opt_.metrics_out.c_str());
    }
    if (opt_.report) obs::write_report(std::cout, obs_.metrics);
    if (!opt_.trace_out.empty()) {
      const std::uint64_t n = obs_.tracer.events_emitted();
      obs_.tracer.close();
      std::printf("(saved %llu trace events to %s)\n", static_cast<unsigned long long>(n),
                  opt_.trace_out.c_str());
    }
    if (!opt_.timeline_out.empty()) {
      const std::uint64_t n = obs_.timeline.rows_emitted();
      obs_.timeline.close();
      std::printf("(saved %llu timeline rows to %s)\n", static_cast<unsigned long long>(n),
                  opt_.timeline_out.c_str());
    }
    if (!opt_.attribution_out.empty()) {
      obs_.attribution.save(opt_.attribution_out, name_, obs::current_git_sha(), opt_.seed,
                            opt_.quick);
      std::printf("(saved %llu attribution rows to %s)\n",
                  static_cast<unsigned long long>(obs_.attribution.row_count()),
                  opt_.attribution_out.c_str());
    }
    if (opt_.bench_enabled()) {
      const std::string path =
          opt_.bench_out.empty() ? "BENCH_" + name_ + ".json" : opt_.bench_out;
      make_report().save(path);
      std::printf("(saved bench report to %s)\n", path.c_str());
    }
  }

  /// The report finish() would save (exposed for tests / custom sinks).
  obs::BenchReport make_report() const {
    obs::BenchReport rep;
    rep.name = name_;
    rep.git_sha = obs::current_git_sha();
    rep.seed = opt_.seed;
    rep.quick = opt_.quick;
    rep.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
                     .count();
    rep.config = report_config_;
    rep.jobs = exp::resolve_jobs(opt_.jobs);
    rep.trial_count = trial_wall_.count();
    rep.trial_wall_mean_s = trial_wall_.mean();
    rep.trial_wall_min_s = trial_wall_.min();
    rep.trial_wall_max_s = trial_wall_.max();
    rep.runs = runs_;
    rep.success_rate = success_.mean();
    rep.overhead_per_minute = overhead_.mean();
    rep.mean_phi = phi_.mean();
    // Host throughput/footprint headline (ROADMAP item 1): total engine
    // events over the bench's wall clock, and the process's peak RSS.
    const std::uint64_t events = obs_.metrics.counter_family_total(obs::metric::kSimEventsExecuted);
    rep.events_per_sec = rep.wall_s > 0.0 ? static_cast<double>(events) / rep.wall_s : 0.0;
    rep.peak_rss_bytes = util::peak_rss_bytes();
    rep.host = util::host_name();
    rep.collect_from(obs_.metrics);
    return rep;
  }

 private:
  std::string name_;
  BenchOptions opt_;
  obs::Observability obs_;
  std::chrono::steady_clock::time_point wall_start_;
  std::vector<std::pair<std::string, std::string>> report_config_;
  util::RunningStat success_, overhead_, phi_, trial_wall_;
  std::uint64_t runs_ = 0;
  obs::GuardToken guard_token_ = 0;
};

inline void emit(const util::Table& table, const std::string& title, const BenchOptions& opt,
                 const std::string& csv_name) {
  std::printf("\n== %s ==\n", title.c_str());
  table.print(std::cout);
  if (!opt.csv_prefix.empty()) {
    table.save_csv(opt.csv_prefix + csv_name + ".csv");
    std::printf("(saved %s%s.csv)\n", opt.csv_prefix.c_str(), csv_name.c_str());
  }
}

}  // namespace acp::benchx
