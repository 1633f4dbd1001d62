#!/usr/bin/env python3
"""Tracing overhead of the SEBDB benchmark, per workload.

Run from the repository root:

    python3 perfbench/overhead.py [--seed N] [--seconds S]

For each workload it runs the benchmark untraced and traced with the same
seed. A traced run prints its own end-to-end figures as "info traced.<name>"
lines; the overhead of a metric is (traced - untraced) / untraced.
"""

import argparse
import json
import os
import re
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise SystemExit("%s trace=%d failed:\n%s" % (workload, trace,
                                                      out.stdout[-2000:]))
    return out.stdout.strip().splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    print("%-8s %-14s %14s %14s %9s" % ("workload", "metric", "untraced",
                                         "traced", "overhead"))
    for w in spec["workloads"]:
        plain = json.loads(run(spec, w["name"], args.seed, seconds, 0)[-1])
        traced = {}
        for line in run(spec, w["name"], args.seed, seconds, 1):
            m = re.match(r"info traced\.(\S+): (\S+)", line)
            if m:
                traced[m.group(1)] = float(m.group(2))
        for name, metric in plain["metrics"].items():
            base = metric["value"]
            t = traced.get(name)
            if t is None or base == 0:
                continue
            print("%-8s %-14s %14.4f %14.4f %+8.1f%%" %
                  (w["name"], name, base, t, 100.0 * (t - base) / base))


if __name__ == "__main__":
    main()
