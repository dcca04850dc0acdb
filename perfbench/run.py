#!/usr/bin/env python3
"""Build and run the TQSim same-host benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite_depol --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library plus the benchmark from
source into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench when
that variable names a directory); later calls rebuild incrementally.
Build output goes to stderr.  The benchmark's standard output is passed
through; its last line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status is non-zero, with no JSON
printed, when the build or the run fails.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite_depol", "wide_ideal_sharded", "service_loop")
# A run must end well inside 180 s; the build gets its own allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", out, "--target", target, "-j", jobs],
             BUILD_TIMEOUT_S)
    binary = os.path.join(out, target)
    if not os.path.isfile(binary):
        fail("build produced no " + target)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tqsim.h")):
        fail("the TQSim sources are not in " + ROOT)

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("benchmark exited with status %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
