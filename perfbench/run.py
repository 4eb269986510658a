#!/usr/bin/env python3
"""Builds the fabric benchmark from the repository sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload steady_fabric --seed 42 --seconds 10 --trace 0

The driver binary is built with CMake from perfbench/CMakeLists.txt, which
compiles the library from ../src.  The build tree is $CARGO_TARGET_DIR when
set (relative paths are taken from the repository root), else .bench_build.
Build output goes to stderr; stdout carries the driver's report, whose last
line is one JSON object {correct, attempted, failed, metrics}.  The exit
status is the driver's: 0 only when every correctness check passed.

With --trace 0 the set-up time is measured here, not in the driver's run:
the driver builds the workload once in each of SETUP_PROBES fresh processes,
half before the run and half after it, and setup_s is their median.  A fresh
process is what a user starting a simulation pays for, and its allocator and
page-fault state is the same on every probe.  Every probe must build the same
initial state, which is checked by its state digest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42
RUN_TIMEOUT_S = 150
SETUP_PROBES = 20


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no eclb sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "fabric_bench")


def probe_setups(binary, args, count):
    """Times `count` set-ups, one per fresh process; returns (times, digests)."""
    times, digests = [], set()
    for _ in range(count):
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only", "1"],
            stdout=subprocess.PIPE, text=True, timeout=60)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 4 or fields[0] != "setup_s":
            sys.exit("perfbench: the set-up probe failed: %r" % proc.stdout)
        times.append(float(fields[1]))
        digests.add(fields[3])
    return times, digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups, digests = [], set()
    try:
        if not args.trace:
            setups, digests = probe_setups(binary, args, SETUP_PROBES // 2)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if not args.trace:
            times, more = probe_setups(binary, args, SETUP_PROBES - len(setups))
            setups += times
            digests |= more
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in time" % args.workload)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: the driver printed no result line")
    report = lines[:-1]
    if setups:
        setup_s = statistics.median(setups)
        report.append("metric setup_s %r s (median of %d fresh processes)"
                      % (setup_s, len(setups)))
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
        result["attempted"] += len(setups)
        if len(digests) != 1:
            report.append("CHECK FAILED: set-up probes built %d different "
                          "initial states" % len(digests))
            result["failed"] += 1
            result["correct"] = False
    print("\n".join(report + [json.dumps(result)]), flush=True)
    return proc.returncode if proc.returncode != 0 else (
        0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
