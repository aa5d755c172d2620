#!/usr/bin/env python3
"""Builds eafe_e2e from this checkout and runs one benchmark workload.

    python3 e2ebench/run.py --workload eafe_tall --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release tree in .bench_build/ at
the checkout root (several minutes); later calls rebuild incrementally.
Build output goes to stderr, so the last stdout line is the benchmark's
JSON result. Traced runs (--trace 1) leave their Chrome trace in
.bench_build/work/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no eafe sources next to e2ebench/ "
                 "(run it from a full checkout)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
            "-DEAFE_BUILD_TESTS=OFF", "-DEAFE_BUILD_BENCHMARKS=OFF",
            "-DEAFE_BUILD_EXAMPLES=OFF",
            "-DCMAKE_PROJECT_INCLUDE=" +
            os.path.join(ROOT, "e2ebench", "hook.cmake")])
    steps.append(["cmake", "--build", BUILD, "--target", "eafe_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(BUILD, "eafe_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
