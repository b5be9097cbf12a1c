#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 lsmbench/spread.py --workload NAME --runs 10 [--first-seed 1]

Runs run.py --trace 0 once per seed and prints, for every metric in
BENCHMARK.json's end_to_end list, the median, the quartile spread
((q3 - q1) / median) and the metric's bound. A metric is steady when its
spread is within the bound; the benchmark aims for a third of it.
"""
import argparse
import json
import os
import subprocess
import sys
import time

from benchstats import load_spec, quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    args = p.parse_args()
    spec = load_spec(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        began = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            universal_newlines=True)
        if done.returncode != 0:
            print("seed %d: run.py exited %d" % (seed, done.returncode))
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %d (%.0f s): %s" % (
            seed, time.monotonic() - began,
            " ".join("%s=%.4g" % (n, m["value"])
                     for n, m in sorted(result["metrics"].items()))))
        sys.stdout.flush()
    if args.runs < 2:
        return 0
    steady = True
    print("%-18s %12s %8s %6s" % ("metric", "median", "spread", "bound"))
    for m in spec["end_to_end"]:
        v = sorted(values[m["name"]])
        spread = quartile_spread(v)
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"]:
            flag, steady = "  OVER BOUND", False
        elif spread > m["bound"] / 3:
            flag = "  over a third of the bound"
        print("%-18s %12.6g %8.4f %6.2f%s" % (m["name"], v[len(v) // 2],
                                              spread, m["bound"], flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
