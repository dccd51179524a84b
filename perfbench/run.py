#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/ (release profile, dune cache off, so
nothing is written outside the checkout). Build output goes to standard
error; standard output carries only the benchmark's report, whose last
line is the JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(target):
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("perfbench: run from the repository root (no dune-project or lib/ here)", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release", target]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def main(argv):
    selftest = argv[:1] == ["--selftest"]
    name = "selftest" if selftest else "bench"
    if not build(f"./perfbench/{name}.exe"):
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", f"{name}.exe")
    args = argv[1:] if selftest else argv
    try:
        return subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
