#!/usr/bin/env python3
"""Builds and runs the end-to-end hql_serve benchmark.

    python3 perfbench/run.py --workload family_read --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) that compiles the library from src/; it is built
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on the
first run and rebuilt incrementally after that. The percentile helper's
test runs after every build. The benchmark binary prints the run context
and, as its last line, the result JSON; its exit code is passed through.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
        [os.path.join(build_dir, "percentile_test")],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hql sources at " + os.path.join(ROOT, "src"))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "hql_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
