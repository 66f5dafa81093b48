#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and compiles
perfbench/ (which builds the library from src/) into .bench_build/; later
calls only check that the build is current. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
--self-test builds and runs the benchmark's own statistics tests.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")


def build():
    """Configures (once) and builds the benchmark; returns a process status."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        status = subprocess.call(configure, stdout=sys.stderr)
        if status != 0:
            return status
    return subprocess.call(
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    status = build()
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status or 1

    if args.self_test:
        return subprocess.call(
            [os.path.join(BUILD_DIR, "perfbench_stats_test")])
    os.makedirs(WORK_DIR, exist_ok=True)
    return subprocess.call([
        os.path.join(BUILD_DIR, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", WORK_DIR,
    ])


if __name__ == "__main__":
    sys.exit(main())
