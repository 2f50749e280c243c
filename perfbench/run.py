#!/usr/bin/env python3
"""The repository benchmark's command (see README.md beside this file).

    python3 perfbench/run.py --workload xl_serial --seed 42 --seconds 55 --trace 0

Builds this directory's CMake project (the acp_perfbench program over the
simulator's libraries in ../src) into .bench_build/perfbench, runs one
workload in one acp_perfbench process, and prints the result as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. Any other argument (such as --tiny, a seconds-long
smoke run) goes to acp_perfbench unchanged. Exit 0 only when every output check passed. A build
failure exits non-zero without printing a result; an acp_perfbench run that
crashes, times out or fails a check prints a result with every request counted
failed and exits 1. Set PERFBENCH_BINARY to run a prebuilt acp_perfbench.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds acp_perfbench; returns its path."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "acp_perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "acp_perfbench")


def compose(spec_metrics, returncode, stdout):
    """Turns acp_perfbench's exit code and stdout into (result, exit code)."""
    raw = None
    for line in reversed(stdout.strip().splitlines()):
        try:
            raw = json.loads(line)
            break
        except ValueError:
            continue
    if not isinstance(raw, dict):
        raw = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    attempted = max(1, int(raw.get("attempted", 1)))
    values = raw.get("metrics", {})
    expected = [m["name"] for m in spec_metrics]
    correct = (returncode == 0 and raw.get("correct") is True
               and sorted(values) == sorted(expected)
               and all(isinstance(values[n], (int, float)) for n in expected))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics if m["name"] in values}
    result = {"correct": correct, "attempted": attempted,
              "failed": 0 if correct else attempted, "metrics": metrics}
    return result, 0 if correct else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload " + args.workload)
    try:
        binary = os.environ.get("PERFBENCH_BINARY") or build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd + passthrough, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        returncode, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        print("perfbench: acp_perfbench timed out", file=sys.stderr)
        returncode = -1
        stdout = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
    result, code = compose(spec["per_layer" if args.trace else "end_to_end"],
                           returncode, stdout)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
