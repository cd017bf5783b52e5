#!/usr/bin/env python3
"""Builds the grtdb benchmark and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload scan_hot|write_txn|mixed_concurrent \
      --seed N --seconds S --trace 0|1

The first run configures and builds an optimized (Release) copy of the
program from ../src into .bench_build/, then runs the reference unit test;
later runs only check that the build is current. The benchmark's own output
goes to stderr; the last line of stdout is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("scan_hot", "write_txn", "mixed_concurrent")


def quiet(cmd):
    """Runs a build step, forwarding its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: failed: %s\n" % " ".join(cmd))
        sys.exit(proc.returncode or 1)


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
           "grtdb_perfbench", "reference_test"])
    quiet([os.path.join(BUILD, "reference_test")])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    build()
    run_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "grtdb_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: the benchmark exited with %d\n"
                         % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
