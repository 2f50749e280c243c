// Repository benchmark: workloads, timing, output checks and result
// encoding shared by the acp_perfbench program and its tests.
//
// Everything here goes through the simulator's public API
// (exp::build_fabric / exp::build_deployment / exp::run_experiment, the
// stream and core entry points, and the obs::Observability bundle); the
// benchmark changes no program code.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.h"
#include "util/stats.h"

namespace acp::perfbench {

/// One workload: the world to build and the trial to run on it.
struct Workload {
  std::string name;
  exp::SystemConfig system;
  exp::ExperimentConfig experiment;  ///< obs stays null; callers attach their own
  /// Timed trials attach a metrics registry + profiler (no file sinks), as a
  /// `--bench-out` figure bench does.
  bool observed = false;
  /// The run seeds of the timed run's request streams. The first is
  /// `experiment.run_seed`; a timed run cycles through all of them, so its
  /// figures average over that many request streams rather than one.
  std::vector<std::uint64_t> stream_run_seeds;
};

/// Workload names: BENCHMARK.json's, in its order, then fig8_observed,
/// which runs here but is left out of BENCHMARK.json (README.md says why).
const std::vector<std::string>& workload_names();

/// Builds workload `name`. The world is fixed by the workload; `seed`
/// seeds the trials' RNGs (arrivals, request draws, probing): stream 0 runs
/// on `seed` itself and stream j on `seed + j * 1000003`, so the same seed
/// gives the same requests, and seeds closer than that share no stream.
/// `tiny` shrinks the world and the run to a seconds-long smoke run of the
/// same shape. Throws PreconditionError for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny = false);

/// The deterministic outputs and host cost of one trial.
struct TrialOutcome {
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_lost = 0;
  double success_pct = 0.0;
  double mean_phi = 0.0;
  double msgs_per_request = 0.0;  ///< probe + state-update messages per request
  double overhead_per_minute = 0.0;
  double wall_s = 0.0;  ///< wall time of exp::run_experiment alone
  double cpu_s = 0.0;   ///< process CPU time over the same call
};

/// Runs exp::run_experiment once and times it (wall and process CPU).
TrialOutcome run_trial(const exp::Fabric& fabric, const exp::SystemConfig& system,
                       const exp::ExperimentConfig& cfg);

/// Output checks on one trial: one line per violated invariant.
std::vector<std::string> check_trial(const TrialOutcome& t);

/// True when the deterministic outputs of two trials are bit-identical.
bool same_outputs(const TrialOutcome& a, const TrialOutcome& b);

/// One pass over a run's request streams, as if their trials were one:
/// counts and costs add up, success_pct, mean_phi and msgs_per_request are
/// taken over all of the streams' requests, and overhead_per_minute is the
/// streams' mean (they share one measured window).
TrialOutcome combine(const std::vector<TrialOutcome>& streams);

/// Wall times of repeated world builds, one sample per build.
struct SetupTiming {
  util::Percentiles fabric_s;      ///< exp::build_fabric
  util::Percentiles deployment_s;  ///< exp::build_deployment
  util::Percentiles total_s;       ///< fabric + deployment
};

/// Builds `cfg`'s world until it has been built at least `min_builds` times
/// and `min_seconds` of wall time have passed, or `max_builds` times, and
/// adds each build's wall times to `into`. One world is alive at a time:
/// each deployment is freed before the next build, and so is each fabric
/// but the last, which is returned for the caller's trial.
exp::Fabric time_setups(const exp::SystemConfig& cfg, std::size_t min_builds, double min_seconds,
                        std::size_t max_builds, SetupTiming& into);

/// Per-call costs of the stream and core entry points, measured on a
/// freshly built deployment with observability off.
struct DirectProbes {
  double cancel_request_us = 0.0;   ///< median StreamSystem::cancel_request
  double release_session_us = 0.0; ///< median StreamSystem::release_session
  double guided_search_ms = 0.0;    ///< median core::guided_search at α = 0.3
  std::size_t searched = 0;         ///< requests in the fixed sample
  std::size_t composed = 0;         ///< of those, how many found a composition
};
DirectProbes run_direct_probes(const exp::Fabric& fabric, const Workload& w,
                               std::size_t sample_requests);

/// A run's request tally: every request of a run that failed a check
/// counts as failed, and a run with no trial still attempts one.
struct Tally {
  bool correct = true;
  std::uint64_t attempted = 1;
  std::uint64_t failed = 0;
};
Tally tally(const std::vector<TrialOutcome>& trials, const std::vector<std::string>& problems);

using MetricList = std::vector<std::pair<std::string, double>>;

/// acp_perfbench's last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:value,..}} with every digit of each value.
std::string result_json(const Tally& t, const MetricList& metrics);

/// Benchmark-side spans around calls into each layer, kept in memory and
/// written as JSONL once the run ends.
class SpanLog {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  std::size_t begin(std::string name, std::size_t parent = kRoot);
  /// Closes span `id`; returns its duration in seconds.
  double end(std::size_t id);
  /// One line per span: {"id","parent","name","start_s","end_s"}.
  void write_jsonl(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    std::size_t parent = kRoot;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  double now_s() const;

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace acp::perfbench
