#!/usr/bin/env python3
"""Steadiness check: runs lfsperf workloads several times and reports spread.

    python3 lfsperf/steady.py [--workload NAME ...] [--runs N] [--seconds S]
                              [--first-seed K]

Runs each workload N times through run.py, each run with its own seed
(K, K+1, ...), and prints for every end-to-end metric of BENCHMARK.json its
median, first and third quartile (statistics.quantiles, n=4) and relative
spread (q3 - q1) / median, next to the metric's bound. A metric is flagged
"over" when its spread exceeds the bound, and "wide" when it exceeds a third
of it. A time metric that reads exactly the same in every run is flagged
"constant". The figures of a run whose correctness checks failed are still
counted, and the run is reported. Exits 1 if any run fails or is incorrect,
or any metric is over or constant.

With --repeat, it instead runs each of churn_hotcold and serve_zipf twice
with the same seed and checks that every figure measured on the simulated
clock (all but setup_s and rss_mb) came out bit-identical.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = {"s", "ms", "us"}
DETERMINISTIC = ["churn_hotcold", "serve_zipf"]
HOST_METRICS = {"setup_s", "rss_mb"}


def run_once(workload, seed, seconds):
    """The run's JSON result, or None when it printed none."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args()

    if args.repeat:
        failed = False
        for workload in args.workload or DETERMINISTIC:
            first, second = (run_once(workload, args.first_seed, args.seconds) for _ in range(2))
            if not (first and first["correct"] and second and second["correct"]):
                print(f"{workload}: run failed or incorrect")
                failed = True
                continue
            differ = [name for name in first["metrics"] if name not in HOST_METRICS and
                      first["metrics"][name] != second["metrics"][name]]
            print(f"{workload} seed {args.first_seed}: "
                  f"{'differs in ' + ', '.join(differ) if differ else 'bit-identical'}")
            failed = failed or bool(differ)
        return 1 if failed else 0

    failed = False
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run "
                      f"{'failed' if result is None else 'incorrect'}")
                failed = True
            if result is None:
                continue
            for name in values:
                if name in result["metrics"]:
                    values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs, {args.seconds} s each")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if metric["unit"] in TIME_UNITS and len(set(vals)) == 1:
                flag = "constant"
            elif spread > metric["bound"]:
                flag = "over"
            elif spread > metric["bound"] / 3:
                flag = "wide"
            failed = failed or flag in ("over", "constant")
            print(f"  {metric['name']:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{metric['bound']:>7}  {flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
