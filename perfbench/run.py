#!/usr/bin/env python3
"""Builds the served benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
repository's src/ tree) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
import time

RUN_LIMIT_S = 175  # the whole run, build excluded, must end well within 180 s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    source_dir = os.path.join(root, "perfbench")

    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "served_bench"])
    for step in steps:
        built = subprocess.run(step, cwd=root, stdout=sys.stderr,
                               stderr=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1

    command = [os.path.join(build_dir, "served_bench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--scratch", os.path.join(build_root, "scratch")]
    start = time.monotonic()
    try:
        # run() kills the child and waits for it when the limit passes.
        result = subprocess.run(command, cwd=root, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s after %.0f s" %
              (RUN_LIMIT_S, time.monotonic() - start), file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
