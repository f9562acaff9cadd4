#!/usr/bin/env python3
"""Builds and runs the LineFS end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test      # build and run the benchmark's tests

The simulator is compiled from ../src into .bench_build/e2ebench (CMake,
RelWithDebInfo) on first use; later runs only rebuild what changed. The
program's stdout is passed through: its last line is the JSON result. With
--trace 1 the benchmark's own spans go to .bench_build/spans/. README.md in
this directory describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "linefs_e2ebench")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def step(cmd):
    """Runs a build command with its output on stderr; fails the run on error."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("command failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the LineFS sources (src/) are not next to " + HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    for target in targets:
        step(["cmake", "--build", BUILD, "--target", target, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["linefs_e2ebench", "e2ebench_stats_test"])
        sys.exit(subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"]).returncode)
    if not args.workload:
        fail("--workload is required")

    build(["linefs_e2ebench"])
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
