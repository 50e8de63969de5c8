#!/usr/bin/env python3
"""Tiny-scale self-test of the layered benchmark.

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then runs every workload of
BENCHMARK.json for one second, untraced and traced. Each run must pass
its own output oracle, fail no request, and report exactly the metrics
BENCHMARK.json names for that mode, every one finite (the end-to-end
ones also above zero). Exits 0 when all runs pass.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step is shared)


def check(result, expected, positive):
    """Problems with one run's result line, as a list of strings."""
    problems = []
    if result.get("correct") is not True:
        problems.append("oracle failed")
    if result.get("failed") != 0:
        problems.append("%s requests failed" % result.get("failed"))
    if not result.get("attempted", 0) >= 1:
        problems.append("nothing attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != expected:
        problems.append("metrics differ: missing %s, extra %s" % (
            sorted(expected - set(metrics)), sorted(set(metrics) - expected)))
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not finite" % name)
        elif positive and value <= 0:
            problems.append("%s is not above zero" % name)
    return problems


def main():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    build_dir = os.path.abspath(os.environ.get(
        "CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    if not run.build(build_dir):
        print("selftest: build failed")
        return 1

    failures = 0
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            command = [os.path.join(build_dir, "orianna_perfbench"),
                       "--workload", workload["name"], "--seed", "1",
                       "--seconds", "1", "--trace", trace]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                problems = check(result, {m["name"] for m in spec[key]},
                                 positive=trace == "0")
            except (IndexError, ValueError):
                problems = ["no result line"]
            if done.returncode != 0:
                problems.append("exit code %d" % done.returncode)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-12s trace %s  %s" % (workload["name"], trace, status))
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
