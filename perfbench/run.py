#!/usr/bin/env python3
"""Build and run the layered benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-warm|serve-cold|slam-garage \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the library sources
under src/) into $CARGO_TARGET_DIR, default .bench_build, then runs the
benchmark binary. Build output goes to stderr; the binary's stdout,
whose last line is the JSON result, is passed through unchanged. The
traced run (--trace 1) writes its spans as a Chrome trace next to the
build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-warm", "serve-cold", "slam-garage")


def build(build_dir):
    """Configure, then build the benchmark target; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target",
              "orianna_perfbench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [os.path.join(build_dir, "orianna_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
