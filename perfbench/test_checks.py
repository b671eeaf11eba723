#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_checks.py

1. perfbench_check_tests: every correctness check passes a good input
   and fails a corrupted one (a NaN, injected mass, one ulp, a wrong
   hop count, ...).
2. BENCHMARK.json names exactly the per-layer metrics the binary
   prints, and a short run of one workload prints exactly the
   end-to-end metrics untraced and the per-layer metrics traced.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: the build step)


def main():
    binary = run.build()
    failures = 0
    tests = os.path.join(os.path.dirname(binary), "perfbench_check_tests")
    if subprocess.run([tests]).returncode != 0:
        failures += 1

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split()
    per_layer = [m["name"] for m in spec["per_layer"]]
    if listed != per_layer:
        print("FAIL BENCHMARK.json per_layer differs from --list-metrics")
        failures += 1

    for trace, want in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        out = subprocess.run(
            [binary, "--workload", "des_fig3", "--seed", "3", "--seconds",
             "0.5", "--trace", trace], stdout=subprocess.PIPE, text=True,
            cwd=ROOT, check=True).stdout
        result = json.loads(out.rstrip("\n").split("\n")[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != {m["name"]: m["unit"] for m in want} or not result["correct"]:
            print(f"FAIL --trace {trace}: metrics {sorted(got)}")
            failures += 1
        else:
            print(f"ok   --trace {trace}: {len(got)} metrics as listed")
    print("PASS" if failures == 0 else f"FAIL: {failures} test(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
