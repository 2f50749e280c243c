// acptrace — CLI over acptrace_lib. Subcommands:
//
//   acptrace analyze <trace.jsonl> [--top=N]
//       Per-request critical-path and hop-latency breakdowns.
//
//   acptrace validate <trace.jsonl>
//       Span-invariant check; exit 1 when any violation is found.
//
//   acptrace diff <baseline.json> <current.json> [threshold flags]
//       Perf-regression gate over two BENCH_<name>.json reports.
//       Threshold flags (defaults in acptrace_lib.h):
//         --max-wall-ratio=R --max-scope-ratio=R --min-scope-total-s=S
//         --max-success-drop=D --max-overhead-ratio=R --max-phi-ratio=R
//         --min-events-rate-ratio=R --max-rss-ratio=R
//       --require-identical-sim additionally demands every deterministic
//       sim observable (headline metrics, runs, counter totals) match the
//       baseline exactly — the --jobs invariance gate.
//       When both files are timeline JSONL (--timeline-out artifacts,
//       sniffed by the schema marker on the first line), diff instead runs
//       the timeline identity gate: every deterministic row (run_start,
//       sample) must match byte-for-byte; host_sample rows are exempt.
//       Exit 1 when any threshold is breached.
//
//   acptrace timeline <timeline.jsonl> [--steady-tol=F] [--window=N]
//       Sim-time telemetry summary per run: steady-state window, per-series
//       min/max/mean/anomalies, coarse window rates.
//
//   acptrace explain <trace.jsonl> (--req=N | --session=N) [--run=N]
//       Causal span tree of one request (or the request that created a
//       session): probes nested under the probe that spawned them, critical
//       path marked, failure-reason rollup for unsuccessful requests.
//
//   acptrace export <trace.jsonl> [--chrome=OUT.json] [--folded=OUT.folded]
//                   [--attribution=ATTR.jsonl]
//       Span-tree dumps for external viewers: Chrome Trace Event JSON
//       (Perfetto / chrome://tracing; pid=run, tid=req) and/or folded
//       flamegraph stacks (flamegraph.pl / speedscope). --attribution
//       appends per-phase cost stacks from an --attribution-out artifact
//       to the folded output.
//
// Exit codes: 0 ok, 1 violations/regressions/no-match found, 2 usage or
// I/O error, 3 baseline missing/unparseable (diff only — lets CI
// distinguish "perf regressed" from "no baseline to compare against").
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "acptrace/acptrace_lib.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

using namespace acp;

int usage() {
  std::fprintf(stderr,
               "usage: acptrace analyze <trace.jsonl> [--top=N]\n"
               "       acptrace validate <trace.jsonl>\n"
               "       acptrace diff <baseline.json> <current.json>\n"
               "           [--max-wall-ratio=R] [--max-scope-ratio=R]\n"
               "           [--min-scope-total-s=S] [--max-success-drop=D]\n"
               "           [--max-overhead-ratio=R] [--max-phi-ratio=R]\n"
               "           [--min-events-rate-ratio=R] [--max-rss-ratio=R]\n"
               "           [--require-identical-sim]\n"
               "       acptrace diff <baseline.jsonl> <current.jsonl>   (timeline mode)\n"
               "       acptrace timeline <timeline.jsonl> [--steady-tol=F] [--window=N]\n"
               "       acptrace explain <trace.jsonl> (--req=N | --session=N) [--run=N]\n"
               "       acptrace export <trace.jsonl> [--chrome=OUT.json] [--folded=OUT]\n"
               "           [--attribution=ATTR.jsonl]\n"
               "exit codes: 0 ok; 1 violations, regressions, or no matching request;\n"
               "            2 usage or I/O error; 3 baseline missing/unparseable (diff)\n");
  return 2;
}

int cmd_analyze(const std::vector<std::string>& paths, util::Flags& flags) {
  if (paths.size() != 1) return usage();
  const auto top = static_cast<std::size_t>(flags.get_int("top", 5));
  const auto analysis = tracecli::analyze(tracecli::load_trace_file(paths[0]), top);
  tracecli::write_analysis(std::cout, analysis);
  return 0;
}

int cmd_validate(const std::vector<std::string>& paths) {
  if (paths.size() != 1) return usage();
  const auto trace = tracecli::load_trace_file(paths[0]);
  const auto violations = tracecli::validate(trace);
  if (violations.empty()) {
    std::printf("OK: %llu events, all span invariants hold%s\n",
                static_cast<unsigned long long>(trace.lines),
                trace.truncated ? " (trace truncated; balance checks skipped)" : "");
    return 0;
  }
  for (const auto& v : violations) std::printf("VIOLATION: %s\n", v.what.c_str());
  std::printf("%zu violation(s) in %llu events\n", violations.size(),
              static_cast<unsigned long long>(trace.lines));
  return 1;
}

int cmd_diff(const std::vector<std::string>& paths, util::Flags& flags) {
  if (paths.size() != 2) return usage();
  tracecli::DiffThresholds th;
  th.max_wall_ratio = flags.get_double("max-wall-ratio", th.max_wall_ratio);
  th.max_scope_ratio = flags.get_double("max-scope-ratio", th.max_scope_ratio);
  th.min_scope_total_s = flags.get_double("min-scope-total-s", th.min_scope_total_s);
  th.max_success_drop = flags.get_double("max-success-drop", th.max_success_drop);
  th.max_overhead_ratio = flags.get_double("max-overhead-ratio", th.max_overhead_ratio);
  th.max_phi_ratio = flags.get_double("max-phi-ratio", th.max_phi_ratio);
  th.min_events_rate_ratio = flags.get_double("min-events-rate-ratio", th.min_events_rate_ratio);
  th.max_rss_ratio = flags.get_double("max-rss-ratio", th.max_rss_ratio);
  th.require_identical_sim = flags.get_bool("require-identical-sim", th.require_identical_sim);

  // Timeline mode: both artifacts are --timeline-out JSONL streams. The
  // current file decides the mode so a missing baseline of either kind
  // still lands in the exit-3 path below.
  if (tracecli::is_timeline_file(paths[1])) {
    tracecli::TimelineData base;
    try {
      base = tracecli::load_timeline_file(paths[0]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "acptrace: bad baseline %s: %s\n", paths[0].c_str(), e.what());
      return 3;
    }
    const auto current = tracecli::load_timeline_file(paths[1]);
    const auto result = tracecli::diff_timelines(base, current);
    tracecli::write_timeline_diff(std::cout, base, current, result);
    return result.ok() ? 0 : 1;
  }

  tracecli::BenchDoc base;
  try {
    base = tracecli::load_bench_file(paths[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acptrace: bad baseline %s: %s\n", paths[0].c_str(), e.what());
    return 3;
  }
  const auto current = tracecli::load_bench_file(paths[1]);
  const auto result = tracecli::diff(base, current, th);
  tracecli::write_diff(std::cout, base, current, result);
  return result.ok() ? 0 : 1;
}

int cmd_explain(const std::vector<std::string>& paths, util::Flags& flags) {
  if (paths.size() != 1) return usage();
  const std::int64_t req = flags.get_int("req", -1);
  const std::int64_t session = flags.get_int("session", -1);
  if ((req < 0) == (session < 0)) return usage();  // exactly one selector
  tracecli::ExplainQuery q;
  q.by_session = session >= 0;
  q.id = static_cast<std::uint64_t>(q.by_session ? session : req);
  q.run = static_cast<std::uint64_t>(flags.get_int("run", 0));
  const auto trace = tracecli::load_trace_file(paths[0]);
  const std::size_t matched = tracecli::explain(std::cout, trace, q);
  if (matched == 0) {
    std::fprintf(stderr, "acptrace: no %s %llu in %s%s\n", q.by_session ? "session" : "req",
                 static_cast<unsigned long long>(q.id), paths[0].c_str(),
                 q.run != 0 ? " (within the requested run)" : "");
    return 1;
  }
  return 0;
}

int cmd_export(const std::vector<std::string>& paths, util::Flags& flags) {
  if (paths.size() != 1) return usage();
  const std::string chrome = flags.get_string("chrome", "");
  const std::string folded = flags.get_string("folded", "");
  const std::string attr_path = flags.get_string("attribution", "");
  if (chrome.empty() && folded.empty()) return usage();

  const auto trace = tracecli::load_trace_file(paths[0]);
  if (!chrome.empty()) {
    std::ofstream out(chrome);
    if (!out) throw acp::PreconditionError("cannot open for writing: " + chrome);
    const auto st = tracecli::export_chrome_trace(out, trace);
    std::printf("chrome trace: %llu request spans, %llu probe spans -> %s\n",
                static_cast<unsigned long long>(st.requests),
                static_cast<unsigned long long>(st.probe_spans), chrome.c_str());
  }
  if (!folded.empty()) {
    std::ofstream out(folded);
    if (!out) throw acp::PreconditionError("cannot open for writing: " + folded);
    auto st = tracecli::export_folded_stacks(out, trace);
    if (!attr_path.empty()) {
      const auto attr = tracecli::load_attribution_file(attr_path);
      st.stacks += tracecli::export_attribution_folded(out, attr).stacks;
    }
    std::printf("folded stacks: %llu lines (%llu probe spans) -> %s\n",
                static_cast<unsigned long long>(st.stacks),
                static_cast<unsigned long long>(st.probe_spans), folded.c_str());
  }
  return 0;
}

int cmd_timeline(const std::vector<std::string>& paths, util::Flags& flags) {
  if (paths.size() != 1) return usage();
  const auto data = tracecli::load_timeline_file(paths[0]);
  const auto analysis =
      tracecli::analyze_timeline(data, flags.get_double("steady-tol", 0.1),
                                 static_cast<std::size_t>(flags.get_int("window", 0)));
  tracecli::write_timeline_analysis(std::cout, analysis);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  // Flags and positional paths, after the subcommand.
  util::Flags flags(argc - 1, argv + 1);
  const std::vector<std::string> paths = flags.positional();

  try {
    if (cmd == "analyze") return cmd_analyze(paths, flags);
    if (cmd == "validate") return cmd_validate(paths);
    if (cmd == "diff") return cmd_diff(paths, flags);
    if (cmd == "timeline") return cmd_timeline(paths, flags);
    if (cmd == "explain") return cmd_explain(paths, flags);
    if (cmd == "export") return cmd_export(paths, flags);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acptrace: %s\n", e.what());
    return 2;
  }
}
