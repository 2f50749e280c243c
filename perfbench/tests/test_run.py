"""Tests of run.py and BENCHMARK.json: metric names, units and directions,
failure counting, and a tiny-world smoke run of every workload shape
through the real acp_perfbench.

    python3 -m unittest discover -s perfbench/tests

The smoke tests run the acp_perfbench named by PERFBENCH_BINARY (the perfbench
CMake project's ctest sets it) and are skipped without one.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

WORKLOADS = ["xl_serial", "xl_sharded"]
END_TO_END = {
    "requests_per_s": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_pct": ("%", "higher"),
    "mean_phi": ("phi", "lower"),
    "msgs_per_request": ("msgs", "lower"),
}
SUFFIX_UNITS = {"_per_s": "1/s", "_ms": "ms", "_us": "us", "_s": "s"}  # first match wins


def clean_program_output(spec_metrics, attempted=300):
    values = {m["name"]: 1.5 for m in spec_metrics}
    return json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                       "metrics": values})


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_names_the_gated_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], WORKLOADS)

    def test_end_to_end_names_units_and_directions(self):
        got = {m["name"]: (m["unit"], m["better"]) for m in self.spec["end_to_end"]}
        self.assertEqual(got, END_TO_END)

    def test_setup_time_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_per_layer_units_match_the_name_suffix(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["per_layer"]:
            suffix = next((s for s in SUFFIX_UNITS if m["name"].endswith(s)), None)
            if suffix is not None:
                self.assertEqual(m["unit"], SUFFIX_UNITS[suffix], m["name"])
            self.assertIn(m["better"], ("higher", "lower"))


class ComposeTest(unittest.TestCase):
    def setUp(self):
        self.metrics = run.load_spec()["end_to_end"]

    def test_passes_a_clean_result_through_with_units(self):
        result, code = run.compose(self.metrics, 0, "log line\n" + clean_program_output(self.metrics))
        self.assertEqual(code, 0)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (300, 0))
        self.assertEqual(result["metrics"]["requests_per_s"], {"value": 1.5, "unit": "req/s"})

    def test_a_crash_counts_as_failed(self):
        result, code = run.compose(self.metrics, -11, "")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_a_failed_check_counts_every_request_failed(self):
        out = json.loads(clean_program_output(self.metrics))
        out.update(correct=False, failed=300)
        result, code = run.compose(self.metrics, 1, json.dumps(out))
        self.assertNotEqual(code, 0)
        self.assertEqual((result["attempted"], result["failed"]), (300, 300))

    def test_a_missing_metric_fails_the_run(self):
        out = json.loads(clean_program_output(self.metrics))
        del out["metrics"]["mean_phi"]
        result, code = run.compose(self.metrics, 0, json.dumps(out))
        self.assertNotEqual(code, 0)
        self.assertEqual(result["failed"], 300)


@unittest.skipUnless(os.environ.get("PERFBENCH_BINARY"), "PERFBENCH_BINARY not set")
class TinySmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        spec = run.load_spec()
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                         "--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny"],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                        timeout=120)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[kind]}
                    got = {n: v["unit"] for n, v in result["metrics"].items()}
                    self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
