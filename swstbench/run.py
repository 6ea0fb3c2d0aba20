#!/usr/bin/env python3
"""Builds the SWST end-to-end benchmark and runs one workload.

    python3 swstbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is compiled from ../src in
Release mode into the build directory ($CARGO_TARGET_DIR, else
.bench_build); later runs rebuild only what changed. The workload's files
go to a scratch directory inside the build directory, removed afterwards.
The last line of standard output is the result object; build output and
the human-readable table go to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stream", "query_warm", "durable")


def build(build_dir):
    """Configures and builds swst_e2e; raises on failure."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "swst_e2e"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "swst_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("build failed: %s" % err, file=sys.stderr)
        return 1

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", scratch],
            timeout=170)
    except subprocess.TimeoutExpired:
        print("workload timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
