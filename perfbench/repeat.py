#!/usr/bin/env python3
"""Repeatability check for the LAN benchmark.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--seconds S]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) on each
workload, untraced, and prints for every end-to-end metric the median, the
first and third quartiles (statistics.quantiles, n=4), and the quartile
spread as a share of the median next to the metric's bound from
BENCHMARK.json. A spread at or above a third of its bound is flagged. Also
prints the failed/attempted share of every run. Used to set the bounds and
to show the benchmark is steady; run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            print("%s seed %d: correct %s, failed %d/%d | %s" %
                  (workload, seed, result["correct"], result["failed"],
                   result["attempted"],
                   " ".join("%s=%.4g" % (k, v["value"])
                            for k, v in result["metrics"].items())),
                  flush=True)
        print("\n%s (%d runs)" % (workload, len(results)))
        print("  %-16s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <-"
            print("  %-16s %12.5g %12.5g %12.5g %8.4f %6.3f%s" %
                  (name, median, q1, q3, spread, bound, flag))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("  failed share per run: %s\n" % shares, flush=True)


if __name__ == "__main__":
    sys.exit(main())
