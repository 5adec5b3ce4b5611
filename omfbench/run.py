#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 omfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 omfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library from ../src together with the benchmark (CMake, RelWithDebInfo) into
.bench_build/omfbench; later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is always the benchmark's JSON result.
The exit code is the benchmark's: 0 only when every output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "omfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("omfbench: library sources (src/) not found next to omfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"omfbench: build failed: {e}")
    if args.selftest:
        cmd = [os.path.join(BUILD, "omfbench-selftest")]
    else:
        cmd = [os.path.join(BUILD, "omfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
