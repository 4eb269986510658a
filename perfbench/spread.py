#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload request_fabric --seeds 1-10 \
        [--seconds 10] [--trace 0]

For every metric of the result line it prints the median over the seeds and
the interquartile range as a share of that median, with the quartiles taken
by statistics.quantiles(values, n=4) -- the figure the benchmark's bounds in
BENCHMARK.json are judged against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            sys.exit("seed %d: run failed with exit status %d"
                     % (seed, proc.returncode))
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print("%-40s median %-14.6g iqr/median %.4f" % (name, med, share))


if __name__ == "__main__":
    main()
