// Tests for the acptrace analyzer library: JSON parsing, critical-path
// reconstruction, span-invariant validation, and the bench-report diff gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

#include "acptrace/acptrace_lib.h"
#include "util/error.h"

namespace acp::tracecli {
namespace {

// Mirrors tools/acptrace/testdata/golden_trace.jsonl: two paths, one fork
// each; probe 4 rejected, probes 3 and 5 return, request confirmed.
// Balance: 5 spawns == 2 forks + 2 returns + 1 reject.
constexpr const char* kGoldenTrace = R"(
{"t": 0, "type": "run_started", "run": 1, "label": "ACP"}
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "deputy": 5, "paths": 2, "alpha": 0.3}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "path": 0, "hop": 0, "node": 5}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 2, "parent": 0, "path": 1, "hop": 0, "node": 5}
{"t": 0.01, "type": "probe_hop", "run": 1, "req": 1, "probe": 1, "path": 0, "hop": 0, "node": 5, "candidates": 6, "selected": 2, "spawned": 2}
{"t": 0.01, "type": "probe_spawned", "run": 1, "req": 1, "probe": 3, "parent": 1, "path": 0, "hop": 1, "node": 7}
{"t": 0.01, "type": "probe_spawned", "run": 1, "req": 1, "probe": 4, "parent": 1, "path": 0, "hop": 1, "node": 8}
{"t": 0.012, "type": "probe_hop", "run": 1, "req": 1, "probe": 2, "path": 1, "hop": 0, "node": 5, "candidates": 4, "selected": 1, "spawned": 1}
{"t": 0.012, "type": "probe_spawned", "run": 1, "req": 1, "probe": 5, "parent": 2, "path": 1, "hop": 1, "node": 9}
{"t": 0.02, "type": "probe_rejected", "run": 1, "req": 1, "probe": 4, "path": 0, "hop": 1, "node": 8, "reason": "qos_violation"}
{"t": 0.03, "type": "probe_returned", "run": 1, "req": 1, "probe": 3, "path": 0, "hops": 2}
{"t": 0.05, "type": "probe_returned", "run": 1, "req": 1, "probe": 5, "path": 1, "hops": 2}
{"t": 0.06, "type": "composition_confirmed", "run": 1, "req": 1, "session": 1, "phi": 1.2, "setup_s": 0.06}
)";

TraceData trace_from(const std::string& text) {
  std::istringstream is(text);
  return load_trace(is);
}

// ---- JSON parser -------------------------------------------------------------

TEST(ParseJson, ParsesNestedDocument) {
  const JsonValue doc = parse_json(
      R"({"name": "x", "n": -2.5e1, "ok": true, "nil": null, "arr": [1, {"k": "v"}]})");
  EXPECT_EQ(doc.str_or("name", ""), "x");
  EXPECT_DOUBLE_EQ(doc.num_or("n", 0.0), -25.0);
  ASSERT_NE(doc.find("ok"), nullptr);
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_EQ(doc.find("nil")->kind, JsonValue::Kind::kNull);
  const JsonValue* arr = doc.find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->array.size(), 2u);
  EXPECT_DOUBLE_EQ(arr->array[0].number, 1.0);
  EXPECT_EQ(arr->array[1].str_or("k", ""), "v");
  EXPECT_EQ(doc.num_or("missing", 9.0), 9.0);
}

TEST(ParseJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), PreconditionError);
  EXPECT_THROW(parse_json("{} trailing"), PreconditionError);
  EXPECT_THROW(parse_json(R"({"a": })"), PreconditionError);
  EXPECT_THROW(parse_json(R"({"a": trug})"), PreconditionError);
}

TEST(ParseJson, DecodesStringEscapes) {
  const JsonValue doc = parse_json(R"({"s": "a\"b\\c\nd\t"})");
  EXPECT_EQ(doc.str_or("s", ""), "a\"b\\c\nd\t");
}

// ---- analyze -----------------------------------------------------------------

TEST(Analyze, ReconstructsCriticalPath) {
  const Analysis a = analyze(trace_from(kGoldenTrace), 5);
  EXPECT_EQ(a.requests, 1u);
  EXPECT_EQ(a.confirmed, 1u);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.probes_spawned, 5u);
  EXPECT_DOUBLE_EQ(a.mean_setup_s, 0.06);
  EXPECT_DOUBLE_EQ(a.max_setup_s, 0.06);

  ASSERT_EQ(a.slowest.size(), 1u);
  const RequestPath& rp = a.slowest[0];
  EXPECT_TRUE(rp.confirmed);
  // Probe 5 returned last (t=0.05) → the critical chain is 2 → 5.
  ASSERT_EQ(rp.critical_path.size(), 2u);
  EXPECT_EQ(rp.critical_path[0].probe, 2u);
  EXPECT_EQ(rp.critical_path[0].node, 5u);
  EXPECT_EQ(rp.critical_path[1].probe, 5u);
  EXPECT_EQ(rp.critical_path[1].node, 9u);
  EXPECT_DOUBLE_EQ(rp.critical_path[1].spawn_t, 0.012);
  EXPECT_DOUBLE_EQ(rp.critical_path[1].end_t, 0.05);
  EXPECT_NEAR(rp.critical_path[1].latency_s, 0.038, 1e-12);
}

TEST(Analyze, SlowestListIsBoundedAndSorted) {
  // Two runs of the same trace → two requests; top_k=1 keeps the slower.
  std::string two = kGoldenTrace;
  std::string second = kGoldenTrace;
  std::size_t pos = 0;
  while ((pos = second.find("\"run\": 1", pos)) != std::string::npos) {
    second.replace(pos, 8, "\"run\": 2");
    pos += 8;
  }
  // Slow down run 2's terminal so it wins.
  pos = second.find("\"setup_s\": 0.06");
  ASSERT_NE(pos, std::string::npos);
  second.replace(pos, 15, "\"setup_s\": 0.90");
  const Analysis a = analyze(trace_from(two + second), 1);
  EXPECT_EQ(a.requests, 2u);
  ASSERT_EQ(a.slowest.size(), 1u);
  EXPECT_EQ(a.slowest[0].run, 2u);
  EXPECT_DOUBLE_EQ(a.slowest[0].setup_s, 0.90);
}

// ---- validate ----------------------------------------------------------------

TEST(Validate, GoldenTraceHasNoViolations) {
  EXPECT_TRUE(validate(trace_from(kGoldenTrace)).empty());
}

TEST(Validate, FlagsOrphanHop) {
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 0.01, "type": "probe_hop", "run": 1, "req": 1, "probe": 99, "hop": 0, "node": 5, "spawned": 1}
{"t": 0.02, "type": "probe_returned", "run": 1, "req": 1, "probe": 1, "hops": 1}
{"t": 0.03, "type": "composition_confirmed", "run": 1, "req": 1, "setup_s": 0.03}
)"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("never-spawned probe 99"), std::string::npos);
}

TEST(Validate, FlagsOrphanParent) {
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 2, "parent": 7, "hop": 1, "node": 5}
{"t": 0.02, "type": "probe_returned", "run": 1, "req": 1, "probe": 2, "hops": 1}
{"t": 0.03, "type": "composition_confirmed", "run": 1, "req": 1, "setup_s": 0.03}
)"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("unknown parent 7"), std::string::npos);
}

TEST(Validate, FlagsDoubleReturn) {
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 0.02, "type": "probe_returned", "run": 1, "req": 1, "probe": 1, "hops": 1}
{"t": 0.04, "type": "probe_returned", "run": 1, "req": 1, "probe": 1, "hops": 1}
{"t": 0.05, "type": "composition_confirmed", "run": 1, "req": 1, "setup_s": 0.05}
)"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("already returned"), std::string::npos);
}

TEST(Validate, FlagsAccountingImbalanceAndMissingTerminal) {
  // Probe 1 is spawned and never heard from again; no confirmed/failed.
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
)"));
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_NE(violations[0].what.find("no composition_confirmed/failed"), std::string::npos);
  EXPECT_NE(violations[1].what.find("imbalance"), std::string::npos);
}

TEST(Validate, TimeoutOutstandingBalancesAccounting) {
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 1.0, "type": "probe_timeout", "run": 1, "req": 1, "outstanding": 1, "deadline_s": 1.0}
{"t": 1.0, "type": "composition_failed", "run": 1, "req": 1, "setup_s": 1.0}
)"));
  EXPECT_TRUE(violations.empty());
}

TEST(Validate, TruncatedTraceSkipsBalanceButNotReferenceChecks) {
  // Same incomplete stream as the imbalance test, but marked truncated:
  // the cut legitimately hides the terminal, so only reference violations
  // (here: an orphan hop) survive.
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 0.01, "type": "probe_hop", "run": 1, "req": 1, "probe": 99, "hop": 0, "node": 5, "spawned": 1}
{"t": 0.02, "type": "trace_truncated", "why": "terminate", "events_before": 3}
)"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("never-spawned probe 99"), std::string::npos);
}

TEST(Validate, RetriedHopIsNotASecondDisposition) {
  // Probe 1's first transmission is lost and retried twice before it
  // returns: still one spawn, one disposition — accounting balances.
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 0.05, "type": "probe_retry", "run": 1, "req": 1, "probe": 1, "attempt": 0, "from": 5, "to": 7}
{"t": 0.15, "type": "probe_retry", "run": 1, "req": 1, "probe": 1, "attempt": 1, "from": 5, "to": 7}
{"t": 0.3, "type": "probe_returned", "run": 1, "req": 1, "probe": 1, "hops": 1}
{"t": 0.4, "type": "composition_confirmed", "run": 1, "req": 1, "setup_s": 0.4}
)"));
  EXPECT_TRUE(violations.empty());
}

TEST(Validate, RetryAfterDispositionIsFlagged) {
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 0.02, "type": "probe_returned", "run": 1, "req": 1, "probe": 1, "hops": 1}
{"t": 0.05, "type": "probe_retry", "run": 1, "req": 1, "probe": 1, "attempt": 0, "from": 5, "to": 7}
{"t": 0.06, "type": "composition_confirmed", "run": 1, "req": 1, "setup_s": 0.06}
)"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("already returned, then probe_retry"), std::string::npos);
}

TEST(Validate, RetryOfNeverSpawnedProbeIsFlagged) {
  const auto violations = validate(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 0.05, "type": "probe_retry", "run": 1, "req": 1, "probe": 42, "attempt": 0, "from": 5, "to": 7}
{"t": 0.3, "type": "probe_returned", "run": 1, "req": 1, "probe": 1, "hops": 1}
{"t": 0.4, "type": "composition_confirmed", "run": 1, "req": 1, "setup_s": 0.4}
)"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].what.find("probe_retry references never-spawned probe 42"),
            std::string::npos);
}

TEST(Analyze, CountsRetries) {
  const auto a = analyze(trace_from(R"(
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "paths": 1}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "hop": 0, "node": 5}
{"t": 0.05, "type": "probe_retry", "run": 1, "req": 1, "probe": 1, "attempt": 0, "from": 5, "to": 7}
{"t": 0.3, "type": "probe_returned", "run": 1, "req": 1, "probe": 1, "hops": 1}
{"t": 0.4, "type": "composition_confirmed", "run": 1, "req": 1, "setup_s": 0.4}
)"));
  EXPECT_EQ(a.probe_retries, 1u);
  EXPECT_EQ(a.confirmed, 1u);
}

// ---- diff --------------------------------------------------------------------

BenchDoc make_bench() {
  BenchDoc b;
  b.name = "fig6";
  b.git_sha = "sha";
  b.wall_s = 10.0;
  b.success_rate = 0.64;
  b.overhead_per_minute = 32000.0;
  b.mean_phi = 1.11;
  b.runs = 12;
  b.scopes["probing.process_probe"] = {500000, 3.0, 6e-6, 2e-5};
  b.scopes["state.check_sweep"] = {100, 0.001, 1e-5, 1e-5};  // below noise floor
  return b;
}

TEST(Diff, IdenticalReportsPass) {
  const BenchDoc b = make_bench();
  const DiffResult r = diff(b, b, DiffThresholds{});
  EXPECT_TRUE(r.ok()) << (r.regressions.empty() ? "" : r.regressions[0]);
}

TEST(Diff, TwoXScopeSlowdownIsFlagged) {
  const BenchDoc base = make_bench();
  BenchDoc cur = base;
  cur.scopes["probing.process_probe"].mean_s *= 2.0;  // injected 2x slowdown
  const DiffResult r = diff(base, cur, DiffThresholds{});
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].find("probing.process_probe"), std::string::npos);
}

TEST(Diff, NoiseFloorScopeIsIgnored) {
  const BenchDoc base = make_bench();
  BenchDoc cur = base;
  cur.scopes["state.check_sweep"].mean_s *= 10.0;  // total_s below min_scope_total_s
  EXPECT_TRUE(diff(base, cur, DiffThresholds{}).ok());
}

TEST(Diff, SuccessDropAndOverheadGrowthAreFlagged) {
  const BenchDoc base = make_bench();
  BenchDoc cur = base;
  cur.success_rate = base.success_rate - 0.05;
  cur.overhead_per_minute = base.overhead_per_minute * 1.5;
  const DiffResult r = diff(base, cur, DiffThresholds{});
  EXPECT_EQ(r.regressions.size(), 2u);
}

TEST(Diff, WallClockRespectsConfiguredRatio) {
  const BenchDoc base = make_bench();
  BenchDoc cur = base;
  cur.wall_s = base.wall_s * 2.0;
  EXPECT_FALSE(diff(base, cur, DiffThresholds{}).ok());
  DiffThresholds loose;
  loose.max_wall_ratio = 25.0;  // the CI perf-smoke setting
  EXPECT_TRUE(diff(base, cur, loose).ok());
}

TEST(Diff, MissingAndNewScopesAreNotesNotRegressions) {
  const BenchDoc base = make_bench();
  BenchDoc cur = base;
  cur.scopes.erase("state.check_sweep");
  cur.scopes["discovery.lookup"] = {1000, 1.0, 1e-6, 1e-6};
  const DiffResult r = diff(base, cur, DiffThresholds{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.notes.size(), 2u);
}

TEST(Diff, JobsMismatchSkipsWallClockGates) {
  // Different worker-pool widths make every wall-clock observable
  // incomparable; only the sim-metric gates stay armed.
  const BenchDoc base = make_bench();
  BenchDoc cur = base;
  cur.jobs = 4;
  cur.wall_s = base.wall_s * 5.0;                     // would breach max_wall_ratio
  cur.scopes["probing.process_probe"].mean_s *= 4.0;  // would breach max_scope_ratio
  const DiffResult r = diff(base, cur, DiffThresholds{});
  EXPECT_TRUE(r.ok()) << (r.regressions.empty() ? "" : r.regressions[0]);
  ASSERT_EQ(r.notes.size(), 1u);
  EXPECT_NE(r.notes[0].find("jobs differ"), std::string::npos);
}

TEST(Diff, RequireIdenticalSimPassesWhenOnlyWallClockDiffers) {
  BenchDoc base = make_bench();
  base.counters["acp.probe.spawned"] = 100;
  BenchDoc cur = base;
  cur.jobs = 8;
  cur.wall_s *= 3.0;
  cur.scopes["probing.process_probe"].mean_s *= 8.0;
  DiffThresholds th;
  th.require_identical_sim = true;
  const DiffResult r = diff(base, cur, th);
  EXPECT_TRUE(r.ok()) << (r.regressions.empty() ? "" : r.regressions[0]);
}

TEST(Diff, RequireIdenticalSimFlagsAnySimDrift) {
  BenchDoc base = make_bench();
  base.counters["acp.probe.spawned"] = 100;
  DiffThresholds th;
  th.require_identical_sim = true;
  {
    BenchDoc cur = base;
    cur.mean_phi += 1e-9;  // far below every ratio threshold, still flagged
    EXPECT_FALSE(diff(base, cur, th).ok());
  }
  {
    BenchDoc cur = base;
    cur.counters["acp.probe.spawned"] = 101;
    EXPECT_FALSE(diff(base, cur, th).ok());
  }
  {
    BenchDoc cur = base;
    cur.counters.erase("acp.probe.spawned");
    EXPECT_FALSE(diff(base, cur, th).ok());
  }
  {
    BenchDoc cur = base;
    cur.counters["acp.request.accepted"] = 7;  // counter only in current
    EXPECT_FALSE(diff(base, cur, th).ok());
  }
  {
    BenchDoc cur = base;
    cur.runs += 1;
    EXPECT_FALSE(diff(base, cur, th).ok());
  }
}

TEST(DecodeBench, DecodesJobsAndCounters) {
  const BenchDoc b = decode_bench(parse_json(R"({
    "schema": "acp-bench/1", "name": "fig5", "wall_s": 1.0, "jobs": 4,
    "headline": {"runs": 2, "success_rate": 0.5, "overhead_per_minute": 10.0, "mean_phi": 1.0},
    "counters": {"acp.probe.spawned": 7, "acp.request.accepted": 3}
  })"));
  EXPECT_EQ(b.jobs, 4u);
  ASSERT_EQ(b.counters.size(), 2u);
  EXPECT_EQ(b.counters.at("acp.probe.spawned"), 7u);
  EXPECT_EQ(b.counters.at("acp.request.accepted"), 3u);
  // Documents from before the field existed decode as serial.
  const BenchDoc legacy = decode_bench(parse_json(R"({
    "schema": "acp-bench/1", "name": "fig5",
    "headline": {"runs": 1, "success_rate": 1.0, "overhead_per_minute": 1.0, "mean_phi": 1.0}
  })"));
  EXPECT_EQ(legacy.jobs, 1u);
  EXPECT_TRUE(legacy.counters.empty());
}

TEST(DecodeBench, RejectsWrongSchema) {
  EXPECT_THROW(decode_bench(parse_json(R"({"schema": "acp-bench/999", "name": "x"})")),
               PreconditionError);
  EXPECT_THROW(decode_bench(parse_json(R"({"name": "x"})")), PreconditionError);
}

TEST(DecodeBench, DecodesV2HostHeadline) {
  const BenchDoc b = decode_bench(parse_json(R"({
    "schema": "acp-bench/2", "name": "fig7", "host": "runner-03", "wall_s": 2.0, "jobs": 1,
    "headline": {"runs": 2, "success_rate": 1.0, "overhead_per_minute": 5.0, "mean_phi": 1.0,
                 "events_per_sec": 120000.5, "peak_rss_bytes": 34230272}
  })"));
  EXPECT_EQ(b.schema, "acp-bench/2");
  EXPECT_EQ(b.host, "runner-03");
  EXPECT_DOUBLE_EQ(b.events_per_sec, 120000.5);
  EXPECT_EQ(b.peak_rss_bytes, 34230272u);
}

TEST(DecodeBench, V1DocumentsDecodeWithV2FieldsZeroed) {
  // Backward compat: committed v1 baselines keep decoding; the absent v2
  // fields read as zero/empty, so the host-headline gates auto-skip.
  const BenchDoc v1 = decode_bench(parse_json(R"({
    "schema": "acp-bench/1", "name": "fig5",
    "headline": {"runs": 1, "success_rate": 1.0, "overhead_per_minute": 1.0, "mean_phi": 1.0}
  })"));
  EXPECT_EQ(v1.schema, "acp-bench/1");
  EXPECT_TRUE(v1.host.empty());
  EXPECT_DOUBLE_EQ(v1.events_per_sec, 0.0);
  EXPECT_EQ(v1.peak_rss_bytes, 0u);
  BenchDoc v2 = v1;
  v2.schema = "acp-bench/2";
  v2.host = "runner-03";
  v2.events_per_sec = 5e5;
  v2.peak_rss_bytes = 64u << 20;
  EXPECT_TRUE(diff(v1, v2, DiffThresholds{}).ok());
  EXPECT_TRUE(diff(v2, v1, DiffThresholds{}).ok());
}

TEST(Diff, EventsRateCollapseFlaggedOnSameHostOnly) {
  BenchDoc base = make_bench();
  base.host = "ci";
  base.events_per_sec = 100000.0;
  BenchDoc cur = base;
  cur.events_per_sec = 30000.0;  // 0.3x, below the 0.67 floor
  const DiffResult r = diff(base, cur, DiffThresholds{});
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].find("events_per_sec"), std::string::npos);
  // Another machine's throughput is incomparable: gate skipped, noted.
  cur.host = "laptop";
  const DiffResult skipped = diff(base, cur, DiffThresholds{});
  EXPECT_TRUE(skipped.ok());
  ASSERT_EQ(skipped.notes.size(), 1u);
  EXPECT_NE(skipped.notes[0].find("hosts differ"), std::string::npos);
}

TEST(Diff, PeakRssGrowthRespectsRatioJobsAndHost) {
  BenchDoc base = make_bench();
  base.host = "ci";
  base.peak_rss_bytes = 100u << 20;
  BenchDoc cur = base;
  cur.peak_rss_bytes = 250u << 20;  // 2.5x > default 2.0
  EXPECT_FALSE(diff(base, cur, DiffThresholds{}).ok());
  DiffThresholds loose;
  loose.max_rss_ratio = 3.0;
  EXPECT_TRUE(diff(base, cur, loose).ok());
  cur.jobs = 8;  // different pool width → different footprint, gate skipped
  EXPECT_TRUE(diff(base, cur, DiffThresholds{}).ok());
}

TEST(DecodeBench, DecodesFullDocument) {
  const BenchDoc b = decode_bench(parse_json(R"({
    "schema": "acp-bench/1", "name": "fig7", "git_sha": "abc", "seed": 42,
    "quick": true, "wall_s": 3.5,
    "headline": {"runs": 4, "success_rate": 0.8, "overhead_per_minute": 100.0, "mean_phi": 1.2},
    "scopes": [{"scope": "sim.dispatch", "count": 10, "total_s": 1.0, "mean_s": 0.1, "p99_s": 0.2}],
    "counters": {"acp.probe.spawned": 7}
  })"));
  EXPECT_EQ(b.name, "fig7");
  EXPECT_DOUBLE_EQ(b.wall_s, 3.5);
  EXPECT_EQ(b.runs, 4u);
  EXPECT_DOUBLE_EQ(b.success_rate, 0.8);
  ASSERT_EQ(b.scopes.count("sim.dispatch"), 1u);
  EXPECT_DOUBLE_EQ(b.scopes.at("sim.dispatch").mean_s, 0.1);
}

// ---- timeline ----------------------------------------------------------------

// Golden timeline: ramp-up (100, 500), a six-sample plateau around 1000
// events/s (t 90..240), then a tail-off (300). Steady-state detection at
// the default 10% tolerance must find exactly the plateau.
constexpr const char* kGoldenTimeline =
    R"({"schema": "acp-timeline/1", "type": "header", "bench": "fig5", "git_sha": "abc", "seed": 42, "quick": true}
{"type": "run_start", "run": 1, "label": "ACP"}
{"type": "sample", "run": 1, "t": 30, "events": 3000, "events_per_s": 100, "queue_depth": 5, "live_probes": 1, "active_sessions": 2, "requests": 3, "successes": 2, "success_rate": 0.666666666667, "mean_phi": 0.5, "allocs": 0}
{"type": "host_sample", "run": 1, "t": 30, "wall_s": 0.1, "peak_rss_bytes": 1000000}
{"type": "sample", "run": 1, "t": 60, "events": 18000, "events_per_s": 500, "queue_depth": 9, "live_probes": 2, "active_sessions": 5, "requests": 9, "successes": 7, "success_rate": 0.777777777778, "mean_phi": 0.52, "allocs": 0}
{"type": "sample", "run": 1, "t": 90, "events": 48000, "events_per_s": 1000, "queue_depth": 12, "live_probes": 2, "active_sessions": 9, "requests": 16, "successes": 13, "success_rate": 0.8125, "mean_phi": 0.53, "allocs": 0}
{"type": "sample", "run": 1, "t": 120, "events": 78300, "events_per_s": 1010, "queue_depth": 12, "live_probes": 1, "active_sessions": 12, "requests": 24, "successes": 20, "success_rate": 0.833333333333, "mean_phi": 0.53, "allocs": 0}
{"type": "sample", "run": 1, "t": 150, "events": 108000, "events_per_s": 990, "queue_depth": 13, "live_probes": 2, "active_sessions": 15, "requests": 32, "successes": 27, "success_rate": 0.84375, "mean_phi": 0.54, "allocs": 0}
{"type": "sample", "run": 1, "t": 180, "events": 138000, "events_per_s": 1000, "queue_depth": 12, "live_probes": 1, "active_sessions": 17, "requests": 40, "successes": 34, "success_rate": 0.85, "mean_phi": 0.54, "allocs": 0}
{"type": "sample", "run": 1, "t": 210, "events": 168150, "events_per_s": 1005, "queue_depth": 12, "live_probes": 2, "active_sessions": 19, "requests": 48, "successes": 41, "success_rate": 0.854166666667, "mean_phi": 0.54, "allocs": 0}
{"type": "sample", "run": 1, "t": 240, "events": 198000, "events_per_s": 995, "queue_depth": 13, "live_probes": 1, "active_sessions": 21, "requests": 56, "successes": 48, "success_rate": 0.857142857143, "mean_phi": 0.54, "allocs": 0}
{"type": "sample", "run": 1, "t": 270, "events": 207000, "events_per_s": 300, "queue_depth": 6, "live_probes": 0, "active_sessions": 18, "requests": 60, "successes": 52, "success_rate": 0.866666666667, "mean_phi": 0.54, "allocs": 0}
{"type": "host_sample", "run": 1, "t": 270, "wall_s": 0.9, "peak_rss_bytes": 2000000}
)";

TimelineData timeline_from(const std::string& text) {
  std::istringstream is(text);
  return load_timeline(is);
}

std::string replaced(std::string s, const std::string& from, const std::string& to) {
  const auto pos = s.find(from);
  if (pos != std::string::npos) s.replace(pos, from.size(), to);
  return s;
}

TEST(Timeline, LoadsHeaderRunsAndRows) {
  const TimelineData d = timeline_from(kGoldenTimeline);
  EXPECT_EQ(d.schema, "acp-timeline/1");
  EXPECT_EQ(d.bench, "fig5");
  EXPECT_EQ(d.git_sha, "abc");
  EXPECT_EQ(d.seed, 42u);
  EXPECT_TRUE(d.quick);
  ASSERT_EQ(d.run_labels.count(1), 1u);
  EXPECT_EQ(d.run_labels.at(1), "ACP");
  EXPECT_EQ(d.samples.size(), 9u);
  EXPECT_EQ(d.host_samples.size(), 2u);
  // run_start + sample rows participate in the identity gate; host rows
  // and the (field-compared) header do not.
  EXPECT_EQ(d.sim_lines.size(), 10u);
  EXPECT_DOUBLE_EQ(d.samples[0].events_per_s, 100.0);
  EXPECT_EQ(d.samples[2].queue_depth, 12u);
  EXPECT_EQ(d.host_samples[1].peak_rss_bytes, 2000000u);
}

TEST(Timeline, RejectsStreamWithoutHeader) {
  EXPECT_THROW(timeline_from(R"({"type": "sample", "run": 1, "t": 30})"), PreconditionError);
  EXPECT_THROW(timeline_from(""), PreconditionError);
}

TEST(Timeline, DetectsSteadyStateOnGoldenFixture) {
  const TimelineAnalysis a = analyze_timeline(timeline_from(kGoldenTimeline), 0.1);
  ASSERT_EQ(a.runs.size(), 1u);
  const RunTimeline& rt = a.runs[0];
  EXPECT_EQ(rt.run, 1u);
  EXPECT_EQ(rt.label, "ACP");
  EXPECT_EQ(rt.samples, 9u);
  ASSERT_TRUE(rt.steady.found);
  EXPECT_DOUBLE_EQ(rt.steady.start_t, 90.0);
  EXPECT_DOUBLE_EQ(rt.steady.end_t, 240.0);
  EXPECT_EQ(rt.steady.samples, 6u);
  EXPECT_NEAR(rt.steady.mean_events_per_s, 1000.0, 0.5);
}

TEST(Timeline, SeriesStatsTrackExtremesWithTimes) {
  const TimelineAnalysis a = analyze_timeline(timeline_from(kGoldenTimeline), 0.1);
  ASSERT_EQ(a.runs.size(), 1u);
  const SeriesStats* rate = nullptr;
  for (const SeriesStats& s : a.runs[0].series) {
    if (s.name == "events_per_s") rate = &s;
  }
  ASSERT_NE(rate, nullptr);
  EXPECT_DOUBLE_EQ(rate->min, 100.0);
  EXPECT_DOUBLE_EQ(rate->min_t, 30.0);
  EXPECT_DOUBLE_EQ(rate->max, 1010.0);
  EXPECT_DOUBLE_EQ(rate->max_t, 120.0);
  EXPECT_GT(rate->stddev, 0.0);
}

TEST(Timeline, WindowsCoverEverySample) {
  const TimelineAnalysis a = analyze_timeline(timeline_from(kGoldenTimeline), 0.1, 4);
  ASSERT_EQ(a.runs.size(), 1u);
  const auto& windows = a.runs[0].windows;
  ASSERT_EQ(windows.size(), 3u);  // 9 samples in blocks of 4: 4 + 4 + 1
  EXPECT_EQ(windows[0].samples, 4u);
  EXPECT_EQ(windows[2].samples, 1u);
  EXPECT_DOUBLE_EQ(windows[0].start_t, 30.0);
  EXPECT_DOUBLE_EQ(windows[2].end_t, 270.0);
  EXPECT_EQ(windows[1].max_queue_depth, 13u);
}

TEST(TimelineDiff, IdenticalStreamsPass) {
  const TimelineData d = timeline_from(kGoldenTimeline);
  const DiffResult r = diff_timelines(d, d);
  EXPECT_TRUE(r.ok()) << (r.regressions.empty() ? "" : r.regressions[0]);
}

TEST(TimelineDiff, HostRowsAreExempt) {
  // Wall clock and RSS legitimately differ across jobs widths / machines.
  const TimelineData base = timeline_from(kGoldenTimeline);
  const TimelineData cur = timeline_from(
      replaced(kGoldenTimeline, "\"wall_s\": 0.1, \"peak_rss_bytes\": 1000000",
               "\"wall_s\": 7.7, \"peak_rss_bytes\": 999000000"));
  EXPECT_TRUE(diff_timelines(base, cur).ok());
}

TEST(TimelineDiff, DeterministicRowDivergenceIsFlagged) {
  const TimelineData base = timeline_from(kGoldenTimeline);
  const TimelineData cur = timeline_from(
      replaced(kGoldenTimeline, "\"queue_depth\": 9", "\"queue_depth\": 10"));
  const DiffResult r = diff_timelines(base, cur);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_NE(r.regressions[0].find("deterministic row"), std::string::npos);
}

TEST(TimelineDiff, RowCountMismatchIsFlagged) {
  std::string shorter(kGoldenTimeline);
  // Drop the final sample + host_sample pair.
  shorter.resize(shorter.rfind("{\"type\": \"sample\", \"run\": 1, \"t\": 270"));
  const DiffResult r = diff_timelines(timeline_from(kGoldenTimeline), timeline_from(shorter));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions.back().find("deterministic rows"), std::string::npos);
}

TEST(TimelineDiff, HeaderComparedFieldWise) {
  const TimelineData base = timeline_from(kGoldenTimeline);
  // A different git sha alone is informational (cross-commit comparisons),
  // but seed disagreement means the files describe different simulations.
  const TimelineData resha =
      timeline_from(replaced(kGoldenTimeline, "\"git_sha\": \"abc\"", "\"git_sha\": \"def\""));
  const DiffResult ok = diff_timelines(base, resha);
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(ok.notes.empty());
  const TimelineData reseed =
      timeline_from(replaced(kGoldenTimeline, "\"seed\": 42", "\"seed\": 43"));
  EXPECT_FALSE(diff_timelines(base, reseed).ok());
}

// ---- explain: causal span trees -----------------------------------------------

// A failed request whose probes die for two different reasons (one of them
// a component_moved with the moved component's id attached).
constexpr const char* kFailedTrace = R"(
{"t": 0, "type": "run_started", "run": 1, "label": "ACP"}
{"t": 0, "type": "request_accepted", "run": 1, "req": 1, "deputy": 3, "paths": 1, "alpha": 0.5}
{"t": 0, "type": "probe_spawned", "run": 1, "req": 1, "probe": 1, "parent": 0, "path": 0, "hop": 0, "node": 3}
{"t": 0.01, "type": "probe_hop", "run": 1, "req": 1, "probe": 1, "path": 0, "hop": 0, "node": 3, "candidates": 3, "selected": 2, "spawned": 2}
{"t": 0.01, "type": "probe_spawned", "run": 1, "req": 1, "probe": 2, "parent": 1, "path": 0, "hop": 1, "node": 6, "component": 12}
{"t": 0.01, "type": "probe_spawned", "run": 1, "req": 1, "probe": 3, "parent": 1, "path": 0, "hop": 1, "node": 7, "component": 14}
{"t": 0.02, "type": "probe_rejected", "run": 1, "req": 1, "probe": 2, "path": 0, "hop": 1, "node": 6, "reason": "qos_violation"}
{"t": 0.03, "type": "probe_rejected", "run": 1, "req": 1, "probe": 3, "path": 0, "hop": 1, "node": 7, "reason": "component_moved", "component": 14}
{"t": 0.04, "type": "composition_failed", "run": 1, "req": 1, "found_qualified": false, "setup_s": 0.04}
)";

TEST(Explain, RendersConfirmedRequestWithCriticalPath) {
  std::ostringstream os;
  ExplainQuery q;
  q.id = 1;
  ASSERT_EQ(explain(os, trace_from(kGoldenTrace), q), 1u);
  const std::string out = os.str();
  EXPECT_NE(out.find("CONFIRMED  session 1"), std::string::npos);
  EXPECT_NE(out.find("deputy node 5"), std::string::npos);
  EXPECT_NE(out.find("5 spawned = 2 forked + 2 returned + 1 rejected"), std::string::npos);
  // Probe 5 returned last → the critical path is 2 → 5, and ONLY those
  // two probes carry the marker.
  EXPECT_NE(out.find("* probe 2"), std::string::npos);
  EXPECT_NE(out.find("* probe 5"), std::string::npos);
  EXPECT_EQ(out.find("* probe 1"), std::string::npos);
  EXPECT_EQ(out.find("* probe 3"), std::string::npos);
  // Probe 3 (child of 1) renders one indent level below its parent.
  EXPECT_NE(out.find("\n      probe 3"), std::string::npos);
  EXPECT_NE(out.find("rejected: qos_violation"), std::string::npos);
  // Confirmed requests have no failure rollup.
  EXPECT_EQ(out.find("failure reasons"), std::string::npos);
}

TEST(Explain, SelectsBySessionId) {
  std::ostringstream os;
  ExplainQuery q;
  q.by_session = true;
  q.id = 1;
  EXPECT_EQ(explain(os, trace_from(kGoldenTrace), q), 1u);
  EXPECT_NE(os.str().find("run 1 req 1"), std::string::npos);
}

TEST(Explain, FailedRequestGetsReasonRollup) {
  std::ostringstream os;
  ExplainQuery q;
  q.id = 1;
  ASSERT_EQ(explain(os, trace_from(kFailedTrace), q), 1u);
  const std::string out = os.str();
  EXPECT_NE(out.find("FAILED (no qualified composition)"), std::string::npos);
  EXPECT_NE(out.find("failure reasons (2 rejected probes):"), std::string::npos);
  EXPECT_NE(out.find("component_moved  1"), std::string::npos);
  EXPECT_NE(out.find("qos_violation  1"), std::string::npos);
  // The component_moved death names the moved component.
  EXPECT_NE(out.find("rejected: component_moved (component 14)"), std::string::npos);
}

TEST(Explain, NoMatchReturnsZeroAndRunFilterApplies) {
  std::ostringstream os;
  ExplainQuery q;
  q.id = 99;
  EXPECT_EQ(explain(os, trace_from(kGoldenTrace), q), 0u);
  q.id = 1;
  q.run = 7;  // request exists, but not in run 7
  EXPECT_EQ(explain(os, trace_from(kGoldenTrace), q), 0u);
  EXPECT_TRUE(os.str().empty());
}

// ---- export: Chrome trace + folded stacks --------------------------------------

TEST(ExportChrome, SpanNestingHoldsAndJsonParses) {
  std::ostringstream os;
  const ExportStats st = export_chrome_trace(os, trace_from(kGoldenTrace));
  EXPECT_EQ(st.requests, 1u);
  EXPECT_EQ(st.probe_spans, 5u);

  const JsonValue doc = parse_json(os.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Collect the request span and the probe spans; verify every probe span
  // nests inside its request span and each fork ends where its child spawns.
  double req_ts = 0.0, req_end = 0.0;
  std::map<std::uint64_t, std::pair<double, double>> probe_span;  // id → [ts, end]
  std::map<std::uint64_t, std::uint64_t> parent_of;
  for (const JsonValue& e : events->array) {
    if (e.str_or("ph", "") != "X") continue;
    const double ts = e.num_or("ts", -1.0);
    const double end = ts + e.num_or("dur", 0.0);
    if (e.str_or("cat", "") == "request") {
      req_ts = ts;
      req_end = end;
      continue;
    }
    ASSERT_EQ(e.str_or("cat", ""), "probe");
    const JsonValue* args = e.find("args");
    ASSERT_NE(args, nullptr);
    const auto id = static_cast<std::uint64_t>(args->num_or("probe", 0.0));
    probe_span[id] = {ts, end};
    parent_of[id] = static_cast<std::uint64_t>(args->num_or("parent", 0.0));
  }
  ASSERT_EQ(probe_span.size(), 5u);
  for (const auto& [id, span] : probe_span) {
    EXPECT_GE(span.first, req_ts) << "probe " << id;
    EXPECT_LE(span.second, req_end) << "probe " << id;
    const std::uint64_t parent = parent_of.at(id);
    if (parent != 0) {
      // Fork boundary: the parent's span ends exactly when the child spawns.
      EXPECT_DOUBLE_EQ(probe_span.at(parent).second, span.first) << "probe " << id;
    }
  }
}

TEST(ExportChrome, RunLabelsBecomeProcessMetadata) {
  std::ostringstream os;
  export_chrome_trace(os, trace_from(kGoldenTrace));
  EXPECT_NE(os.str().find("\"name\": \"run 1 ACP\""), std::string::npos);
}

TEST(ExportFolded, StacksFollowCausalNodeChains) {
  std::ostringstream os;
  const ExportStats st = export_folded_stacks(os, trace_from(kGoldenTrace));
  EXPECT_EQ(st.probe_spans, 5u);
  EXPECT_EQ(st.stacks, 4u);  // the two root probes share the run1;node5 frame
  const std::string out = os.str();
  // Probe 5's chain: root probe 2 at node 5 → probe 5 at node 9; its own
  // span is 0.012 → 0.05 = 38000 µs.
  EXPECT_NE(out.find("run1;node5;node9 38000\n"), std::string::npos);
  // Probe 3 (via probe 1, also at node 5): 0.01 → 0.03 = 20000 µs.
  EXPECT_NE(out.find("run1;node5;node7 20000\n"), std::string::npos);
  // Both roots aggregate into one node5 self-stack: 10000 + 12000 µs.
  EXPECT_NE(out.find("run1;node5 22000\n"), std::string::npos);
}

// ---- attribution artifacts ------------------------------------------------------

constexpr const char* kAttrArtifact = R"(
{"schema": "acp-attr/1", "type": "header", "bench": "fig6", "git_sha": "sha1", "seed": 42, "quick": true}
{"type": "attr", "phase": "probe", "node": 0, "fn": 2, "count": 300000, "sim_s": 30.0}
{"type": "attr", "phase": "probe", "node": 1, "fn": 3, "count": 200000, "sim_s": 20.0}
{"type": "attr", "phase": "rank", "node": 0, "fn": 2, "count": 9, "sim_s": 0}
{"type": "attr_wait", "kind": "probe_transit", "count": 7, "sim_s": 3.5}
{"type": "attr_host", "phase": "probe", "node": 0, "count": 300000, "wall_s": 1.5}
{"type": "attr_host", "phase": "probe", "node": 1, "count": 200000, "wall_s": 1.4}
{"type": "attr_total", "count": 500009, "sim_s": 50.0, "wait_count": 7, "wait_s": 3.5}
)";

AttrDoc attr_from(const std::string& text) {
  std::istringstream is(text);
  return load_attribution(is);
}

TEST(AttrLoad, DecodesAllRowFamilies) {
  const AttrDoc d = attr_from(kAttrArtifact);
  EXPECT_EQ(d.bench, "fig6");
  EXPECT_EQ(d.seed, 42u);
  EXPECT_TRUE(d.quick);
  ASSERT_EQ(d.rows.size(), 3u);
  EXPECT_EQ(d.rows[0].phase, "probe");
  EXPECT_EQ(d.rows[0].count, 300000u);
  ASSERT_EQ(d.waits.size(), 1u);
  EXPECT_DOUBLE_EQ(d.waits[0].sim_s, 3.5);
  ASSERT_EQ(d.host.size(), 2u);
  EXPECT_EQ(d.total_count, 500009u);
}

TEST(AttrLoad, RejectsMissingHeader) {
  EXPECT_THROW(attr_from(R"({"type": "attr", "phase": "probe"})"), PreconditionError);
  EXPECT_THROW(attr_from(""), PreconditionError);
}

TEST(AttrFolded, WeightsBySimTimeOrCount) {
  std::ostringstream os;
  const ExportStats st = export_attribution_folded(os, attr_from(kAttrArtifact));
  EXPECT_EQ(st.stacks, 3u);
  const std::string out = os.str();
  EXPECT_NE(out.find("attr;probe;node0;fn2 30000000\n"), std::string::npos);
  // rank charges no sim time → its count is the weight.
  EXPECT_NE(out.find("attr;rank;node0;fn2 9\n"), std::string::npos);
}

}  // namespace
}  // namespace acp::tracecli
