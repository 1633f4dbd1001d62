#!/usr/bin/env python3
"""Self-check of the SEBDB benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload at minimal scale (--scale smoke) it asserts that

  * an untraced run exits 0 and prints exactly the end-to-end metrics of
    BENCHMARK.json, each with its unit;
  * a traced run exits 0 and prints exactly the per-layer metrics;
  * a run whose ground truth is deliberately wrong (--wrong-truth 1) exits
    non-zero;

and that the command, run in a directory holding only BENCHMARK.json and
the benchmark's own files, exits non-zero without printing a result.
Exits non-zero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(spec, cwd, workload, trace, wrong_truth=0, seconds=2):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(seconds), "--trace", str(trace),
                             "--scale", "smoke",
                             "--wrong-truth", str(wrong_truth)]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=900)
    return out.returncode, out.stdout.strip().splitlines()


def check(cond, what):
    if not cond:
        print("selfcheck FAILED: " + what)
        sys.exit(1)
    print("ok  " + what)


def check_metrics(lines, expected, what):
    check(bool(lines), what + ": printed a result line")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          what + ": result keys")
    check(result["correct"] is True and result["attempted"] >= 1,
          what + ": correct with attempted >= 1")
    got = result["metrics"]
    check(set(got) == set(expected), what + ": prints every metric, no other")
    for name, unit in expected.items():
        check(got[name]["unit"] == unit and
              isinstance(got[name]["value"], (int, float)),
              "%s: %s in %s" % (what, name, unit))


def main():
    spec = load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        rc, lines = run(spec, ROOT, name, trace=0)
        check(rc == 0, "%s untraced exits 0" % name)
        check_metrics(lines, e2e, "%s untraced" % name)
        rc, lines = run(spec, ROOT, name, trace=1)
        check(rc == 0, "%s traced exits 0" % name)
        check_metrics(lines, layers, "%s traced" % name)
        rc, lines = run(spec, ROOT, name, trace=0, wrong_truth=1)
        check(rc != 0, "%s with a wrong ground truth exits non-zero" % name)

    # The command alone, without the sources it builds, must refuse to run.
    stripped = os.path.join(ROOT, ".bench_build", "selfcheck-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(stripped, path))
    try:
        rc, lines = run(spec, stripped, spec["workloads"][0]["name"], trace=0)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    check(rc != 0, "stripped checkout exits non-zero")
    check(not any(l.startswith("{") for l in lines),
          "stripped checkout prints no result")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
