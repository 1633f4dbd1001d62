#!/usr/bin/env python3
"""SEBDB benchmark: builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest|query|verify --seed N \
        --seconds S --trace 0|1

The benchmark program (perfbench/src) is compiled together with the SEBDB library in
../src into .bench_build/perfbench, on first use and whenever a source
changed. Node data lives in .bench_build/run-<pid> and is removed when the
run ends; a traced run leaves its raw spans in .bench_build/traces.

The last line of standard output is the result JSON. The exit code is 0
only when the build succeeded and every correctness and validity check of
the run held.

Extra flags, used by perfbench/selfcheck.py:
    --scale smoke      shrink every input (the benchmark.s self-check)
    --wrong-truth 1    perturb one ground-truth count (must fail the run)
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sebdb_perfbench")
WORKLOADS = ("ingest", "query", "verify")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        log("no SEBDB sources at %s; run from a full checkout" % SRC)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        log("build failed")
        return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--wrong-truth", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    data_dir = os.path.join(os.path.dirname(BUILD), "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--scale", args.scale,
           "--wrong-truth", str(args.wrong_truth)]
    if args.trace:
        cmd += ["--trace-dir", os.path.join(os.path.dirname(BUILD), "traces")]
    try:
        # The program.s node logs go to stderr; its stdout is the report.
        rc = subprocess.call(cmd)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
