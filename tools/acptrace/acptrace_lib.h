// acptrace — offline analyzer for the repo's perf/trace artifacts.
//
// Consumes the two artifact kinds the observability layer produces:
//
//   * probe-lifecycle JSONL traces (obs/trace.h, --trace-out) — re-assembles
//     per-request span trees, computes critical-path / per-hop latency
//     breakdowns (`analyze`), and checks span invariants (`validate`):
//     every hop/reject/return/retry must reference an earlier spawn, each
//     probe gets exactly one disposition (fork, return, reject, or
//     outstanding at timeout) — a probe_retry span is a retransmission of
//     the SAME in-flight probe, never a second disposition — and per-request
//     accounting must balance.
//
//   * BENCH_<name>.json perf reports (obs/bench_report.h, --bench-out) —
//     `diff` compares a current report against a baseline and flags
//     regressions against configurable thresholds; CI runs it as the
//     perf-smoke gate with baselines from bench/baselines/.
//
//   * sim-time timeline telemetry JSONL (obs/timeline.h, --timeline-out) —
//     `timeline` summarizes each run's series (window rates, per-series
//     min/max/anomalies, steady-state detection); `diff` on two timeline
//     files runs the jobs-invariance identity gate over the deterministic
//     rows (host_sample rows exempt).
//
// The library is UI-free (no printing, no exit codes) so tests can drive it
// directly; tools/acptrace/main.cpp adds the CLI.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace acp::tracecli {

// ---- Minimal JSON document parser (for BENCH_*.json) ------------------------

/// Recursive JSON value. Small and allocation-happy — these documents are a
/// few KB; clarity beats speed here (the hot-path format is JSONL, parsed
/// by obs::parse_trace_line instead).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Convenience accessors returning a fallback when absent/mistyped.
  double num_or(const std::string& key, double fallback) const;
  std::string str_or(const std::string& key, const std::string& fallback) const;
};

/// Parses one complete JSON document. Throws PreconditionError on malformed
/// input or trailing garbage.
JsonValue parse_json(const std::string& text);

// ---- Trace loading ----------------------------------------------------------

struct TraceData {
  std::vector<obs::ParsedTraceEvent> events;  ///< in file order
  bool truncated = false;   ///< a trace_truncated marker was present
  std::uint64_t lines = 0;  ///< total non-empty lines parsed
};

/// Reads a JSONL trace stream. Throws PreconditionError on a malformed line.
TraceData load_trace(std::istream& in);
TraceData load_trace_file(const std::string& path);

// ---- analyze: critical paths & hop latencies --------------------------------

struct HopTiming {
  std::uint64_t probe = 0;
  std::uint64_t node = 0;
  std::uint64_t hop = 0;       ///< depth along the path (0 = deputy root)
  double spawn_t = 0.0;        ///< sim time the probe was spawned
  double end_t = 0.0;          ///< sim time of its hop/terminal event
  double latency_s = 0.0;      ///< end_t - spawn_t (transit + processing)
};

/// One request's reconstructed composition timeline: the chain of probes
/// from the deputy to the probe whose return completed latest (the
/// critical path — the chain the setup time waited on).
struct RequestPath {
  std::uint64_t run = 0;
  std::uint64_t req = 0;
  bool confirmed = false;
  bool timed_out = false;
  double accepted_t = 0.0;
  double end_t = 0.0;          ///< confirmed/failed event time
  double setup_s = 0.0;        ///< end_t - accepted_t
  std::uint64_t probes_spawned = 0;
  std::vector<HopTiming> critical_path;  ///< root → leaf order
};

struct Analysis {
  std::uint64_t requests = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t probes_spawned = 0;
  std::uint64_t probe_retries = 0;  ///< retransmissions of lost hops (fault runs)
  double mean_setup_s = 0.0;
  double max_setup_s = 0.0;
  bool truncated = false;
  std::vector<RequestPath> slowest;  ///< top-K by setup time, descending
};

Analysis analyze(const TraceData& trace, std::size_t top_k = 5);
void write_analysis(std::ostream& os, const Analysis& a);

// ---- validate: span invariants -----------------------------------------------

struct Violation {
  std::string what;  ///< human-readable, one line
};

/// Checks the span invariants described in the file header. A truncated
/// trace (trace_truncated marker) downgrades end-of-stream *balance*
/// violations — the cut can legitimately hide terminals — but referencing
/// a never-spawned probe is a violation regardless.
std::vector<Violation> validate(const TraceData& trace);

// ---- diff: bench-report regression gate ---------------------------------------

/// One BENCH_<name>.json, decoded into the fields diff compares.
struct BenchDoc {
  std::string schema;  ///< "acp-bench/1" or "acp-bench/2"
  std::string name;
  std::string git_sha;
  std::string host;  ///< machine the bench ran on; empty in v1 documents
  double wall_s = 0.0;
  std::uint64_t jobs = 1;  ///< worker-pool width ("jobs" field; 1 pre-PR-5)
  double success_rate = 0.0;
  double overhead_per_minute = 0.0;
  double mean_phi = 0.0;
  std::uint64_t runs = 0;
  // Host-headline metrics (v2); zero when the document predates them.
  double events_per_sec = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  struct Scope {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double mean_s = 0.0;
    double p99_s = 0.0;
  };
  std::map<std::string, Scope> scopes;
  /// Counter family totals — deterministic sim observables, used by the
  /// require_identical_sim gate. Empty for documents without the section.
  std::map<std::string, std::uint64_t> counters;
};

/// Decodes a parsed acp-bench document — both schema versions (v1 reads
/// with the v2 fields zeroed/empty, so the new gates auto-skip against old
/// baselines). Throws PreconditionError when the schema marker is missing
/// or unknown.
BenchDoc decode_bench(const JsonValue& doc);
BenchDoc load_bench_file(const std::string& path);

struct DiffThresholds {
  // Wall-clock gates are ratio-based and should be loose in CI (shared
  // runners jitter); the defaults suit a quiet local machine.
  double max_wall_ratio = 1.5;    ///< current.wall_s / base.wall_s
  double max_scope_ratio = 1.8;   ///< per-scope mean_s ratio (2× slowdown flags)
  double min_scope_total_s = 0.005;  ///< ignore scopes cheaper than this in base
  // Sim-metric gates compare deterministic outputs: same seed ⇒ identical,
  // so these stay tight everywhere.
  double max_success_drop = 0.02;    ///< absolute drop in success_rate
  double max_overhead_ratio = 1.10;  ///< probing overhead growth
  double max_phi_ratio = 1.10;       ///< mean φ(λ) growth
  // Host-headline gates (bench schema v2). Applied only when both sides ran
  // on the SAME host with the SAME jobs width and both carry the field —
  // v1 baselines decode as zero, so these auto-skip against old reports.
  double min_events_rate_ratio = 0.67;  ///< floor on current/base events_per_sec
  double max_rss_ratio = 2.0;           ///< peak_rss_bytes growth
  /// Jobs-invariance mode: every deterministic sim observable (headline
  /// metrics, run count, counter totals) must match the baseline EXACTLY —
  /// any difference is a regression. Wall-clock fields stay ratio-gated.
  /// Used by CI to prove --jobs N never changes simulation results.
  bool require_identical_sim = false;
};

struct DiffResult {
  std::vector<std::string> regressions;  ///< threshold breaches (fail)
  std::vector<std::string> notes;        ///< informational deltas
  bool ok() const { return regressions.empty(); }
};

DiffResult diff(const BenchDoc& base, const BenchDoc& current, const DiffThresholds& th);
void write_diff(std::ostream& os, const BenchDoc& base, const BenchDoc& current,
                const DiffResult& result);

// ---- timeline: sim-time telemetry series --------------------------------------

/// One deterministic "sample" row of an acp-timeline stream (obs/timeline.h).
struct TimelineSampleRow {
  std::uint64_t run = 0;
  double t = 0.0;  ///< sim seconds
  std::uint64_t events = 0;
  double events_per_s = 0.0;  ///< sim rate since the previous sample
  std::uint64_t queue_depth = 0;
  std::uint64_t live_probes = 0;
  std::uint64_t active_sessions = 0;
  std::uint64_t requests = 0;
  std::uint64_t successes = 0;
  double success_rate = 0.0;
  double mean_phi = 0.0;
  std::uint64_t allocs = 0;
};

/// One "host_sample" row — wall-clock observables, exempt from identity gates.
struct TimelineHostRow {
  std::uint64_t run = 0;
  double t = 0.0;
  double wall_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;
};

struct TimelineData {
  std::string schema;  ///< from the header row, e.g. "acp-timeline/1"
  std::string bench;
  std::string git_sha;
  std::uint64_t seed = 0;
  bool quick = false;
  std::map<std::uint64_t, std::string> run_labels;  ///< run index → algorithm label
  std::vector<TimelineSampleRow> samples;           ///< file order
  std::vector<TimelineHostRow> host_samples;
  /// run_start + sample lines verbatim, in file order. diff_timelines
  /// compares these byte-for-byte (the header is compared field-wise so a
  /// git_sha difference alone never trips the identity gate).
  std::vector<std::string> sim_lines;
  std::uint64_t lines = 0;  ///< total non-empty lines parsed
};

/// Reads an acp-timeline JSONL stream. Throws PreconditionError on a
/// malformed line or when the first row is not an acp-timeline header.
TimelineData load_timeline(std::istream& in);
TimelineData load_timeline_file(const std::string& path);

/// True when the file's first line carries an acp-timeline schema marker —
/// how `diff` picks timeline mode over bench-report mode. Never throws; an
/// unreadable file is simply not a timeline.
bool is_timeline_file(const std::string& path);

// ---- timeline analysis ----------------------------------------------------------

/// Summary of one numeric series within one run.
struct SeriesStats {
  std::string name;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double min_t = 0.0;  ///< sim time of the minimum
  double max_t = 0.0;  ///< sim time of the maximum
  /// Samples outside the 3-sigma band, "t=<T>: <value>" (capped, see
  /// analyze_timeline). Empty when stddev is zero.
  std::vector<std::string> anomalies;
};

/// Longest contiguous stretch of samples whose events_per_s stays within
/// a relative tolerance of the window's own mean — the run's steady state.
struct SteadyWindow {
  bool found = false;  ///< a window of >= 3 samples existed
  double start_t = 0.0;
  double end_t = 0.0;
  double mean_events_per_s = 0.0;
  std::size_t samples = 0;
};

/// Aggregate over a fixed block of consecutive samples — the coarse
/// rate/queue profile the `timeline` subcommand prints.
struct WindowRate {
  double start_t = 0.0;
  double end_t = 0.0;
  std::size_t samples = 0;
  double mean_events_per_s = 0.0;
  double mean_queue_depth = 0.0;
  std::uint64_t max_queue_depth = 0;
};

struct RunTimeline {
  std::uint64_t run = 0;
  std::string label;  ///< from the run_start row
  std::size_t samples = 0;
  double first_t = 0.0;
  double last_t = 0.0;
  SteadyWindow steady;
  std::vector<SeriesStats> series;  ///< fixed order, see analyze_timeline
  std::vector<WindowRate> windows;
};

struct TimelineAnalysis {
  std::string bench;
  std::uint64_t seed = 0;
  bool quick = false;
  std::vector<RunTimeline> runs;  ///< ascending run index
};

/// Per-run series summaries. `steady_tol` is the relative band for
/// steady-state detection (0.1 = every sample within ±10% of the window
/// mean). `window` groups that many consecutive samples per WindowRate row;
/// 0 picks a size that yields roughly a dozen windows per run.
TimelineAnalysis analyze_timeline(const TimelineData& data, double steady_tol = 0.1,
                                  std::size_t window = 0);
void write_timeline_analysis(std::ostream& os, const TimelineAnalysis& a);

/// Jobs-invariance identity gate over two timeline streams: the headers
/// must agree on schema/bench/seed/quick and every deterministic row
/// (run_start, sample) must match byte-for-byte in order. host_sample rows
/// are exempt — they may differ freely across jobs widths and machines.
DiffResult diff_timelines(const TimelineData& base, const TimelineData& current);
void write_timeline_diff(std::ostream& os, const TimelineData& base,
                         const TimelineData& current, const DiffResult& result);

// ---- explain: one request's causal span tree -----------------------------------

struct ExplainQuery {
  bool by_session = false;  ///< `id` is a session id (joins composition_confirmed)
  std::uint64_t id = 0;     ///< request id (default) or session id
  std::uint64_t run = 0;    ///< restrict to one run index; 0 = all runs
};

/// Renders the full causal span tree of every request matching `q`: probes
/// indented under the probe whose fork spawned them, dispositions and
/// per-probe timings inline, critical-path members marked, and — for
/// unsuccessful requests — a reject-reason rollup explaining the failure.
/// Returns the number of matching requests (0 ⇒ nothing was rendered).
std::size_t explain(std::ostream& os, const TraceData& trace, const ExplainQuery& q);

// ---- export: Chrome-trace / folded-stack span dumps ----------------------------

struct ExportStats {
  std::uint64_t requests = 0;     ///< request spans emitted
  std::uint64_t probe_spans = 0;  ///< probe spans emitted
  std::uint64_t stacks = 0;       ///< folded-stack lines emitted
};

/// Chrome Trace Event Format JSON ({"traceEvents": [...]}), loadable by
/// Perfetto and chrome://tracing. One complete ("X") event per terminal
/// request (pid = run, tid = request id) and one per probe, nested by sim
/// time: every probe span lies within its request's span, and a forking
/// probe ends exactly where its children spawn. Timestamps are sim
/// microseconds. run_started labels become process_name metadata.
ExportStats export_chrome_trace(std::ostream& os, const TraceData& trace);

/// Folded flamegraph stacks ("run1;node5;node12 <weight>"), one frame per
/// overlay node along the probe's causal chain, weighted by the probe's own
/// span in sim-µs and aggregated across requests — feed to flamegraph.pl /
/// speedscope / inferno to see hot node chains.
ExportStats export_folded_stacks(std::ostream& os, const TraceData& trace);

// ---- attribution artifacts (--attribution-out JSONL, schema acp-attr/1) --------

/// One --attribution-out artifact (obs/attribution.h), decoded.
struct AttrDoc {
  std::string schema;
  std::string bench;
  std::string git_sha;
  std::uint64_t seed = 0;
  bool quick = false;
  struct Row {  ///< deterministic sim-cost row (type "attr")
    std::string phase;
    std::int64_t node = -1;
    std::int64_t fn = -1;
    std::uint64_t count = 0;
    double sim_s = 0.0;
  };
  struct Wait {  ///< event-queue wait row (type "attr_wait")
    std::string kind;
    std::uint64_t count = 0;
    double sim_s = 0.0;
  };
  struct Host {  ///< wall-clock row (type "attr_host"), identity-exempt
    std::string phase;
    std::int64_t node = -1;
    std::uint64_t count = 0;
    double wall_s = 0.0;
  };
  std::vector<Row> rows;
  std::vector<Wait> waits;
  std::vector<Host> host;
  std::uint64_t total_count = 0;  ///< from the trailing attr_total row
  double total_sim_s = 0.0;
};

/// Reads an acp-attr/1 JSONL artifact. Throws PreconditionError on a
/// malformed line or a missing/unknown schema header.
AttrDoc load_attribution(std::istream& in);
AttrDoc load_attribution_file(const std::string& path);

/// Folded stacks from attribution rows ("attr;<phase>;node5;fn2 <weight>"),
/// weighted by sim-µs — or by count for phases that charge no sim time
/// (e.g. rank). Complements export_folded_stacks in one flamegraph input.
ExportStats export_attribution_folded(std::ostream& os, const AttrDoc& attr);

}  // namespace acp::tracecli
