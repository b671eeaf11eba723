#!/usr/bin/env python3
"""Build the host benchmark from this tree and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and the library under it) into .bench_build/perfbench;
later runs only let the build tool confirm nothing changed. The last
line of standard output is the benchmark's JSON result. A traced run
also writes its spans to .bench_out/spans-<workload>-<seed>.tsv.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(why):
    print(f"perfbench/run.py: {why}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build; all build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}; "
             "run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within 170 s")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail(f"the benchmark exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        fail("the benchmark printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
