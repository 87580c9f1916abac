#!/usr/bin/env python3
"""Builds lfsperf from this checkout's sources and runs one workload.

    python3 lfsperf/run.py --workload churn_hotcold|fsync_mt|serve_zipf \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout. The build goes to .bench_build/lfsperf
(CMake, Release); the first run builds the storage manager's library, later
runs only check that it is current. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. Its metrics
are the ones BENCHMARK.json lists for the mode: end_to_end with --trace 0,
per_layer with --trace 1, where a layer the workload does not have reads 0.
With --trace 1 the traced spans are written to
.bench_build/lfsperf/spans-<workload>-<seed>.jsonl.

--workload fsync_mt_no_checkpoint is not a benchmark workload: it runs
fsync_mt without the checkpoint before its crash, and fails while the
recovery defect lfsperf/README.md describes stands.

Exits nonzero, without a result, when the sources are missing or the build
fails, and passes the benchmark's own exit code through otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lfsperf")
BINARY = os.path.join(BUILD, "lfsperf")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the lfsperf target; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "lfsperf", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"lfsperf: {' '.join(cmd)} failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"lfsperf: {' '.join(cmd)} exited {done.returncode}", file=sys.stderr)
            return False
    return True


def listed_metrics(line, trace):
    """Keeps the metrics BENCHMARK.json lists for the mode, the binary's JSON
    result line given; per-layer ones the binary did not report read 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    got = result["metrics"]
    result["metrics"] = {
        m["name"]: got.get(m["name"], {"value": 0, "unit": m["unit"]}) for m in listed
        if m["name"] in got or trace}
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["churn_hotcold", "fsync_mt", "serve_zipf",
                                 "fsync_mt_no_checkpoint"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"lfsperf: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        return done.returncode or 1
    print(listed_metrics(lines[-1], args.trace))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
