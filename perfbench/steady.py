#!/usr/bin/env python3
"""Prove the benchmark steady: run every workload in two separate sets
of seeds 1..N and compare each end-to-end metric with its bound.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

The first set runs every chosen workload once per seed, then the second
set does the same, so the two sets sit minutes apart as two separate
sets of runs would. Per set, a metric's spread is the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a
share of the median; the shift is the change of the second set's median
against the first's. A metric holds when both spreads and the shift
stay within its bound, and is steady when they stay below a third of
it; setup_s, one cold set-up per run, is judged the same way. The share
of failed operations must be the same in every run. Runs go one after
another, never in parallel. Exit code 1 when any run fails, reports
incorrect output, or a metric passes its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    for workload in workloads:
        if workload not in names:
            sys.exit(f"unknown workload {workload}; have {names}")
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    bad = False
    sets = []  # sets[s][workload] = list of results
    for s in range(2):
        sets.append({})
        for workload in workloads:
            results = []
            for seed in range(1, args.runs + 1):
                res = run_once(workload, seed, spec["run_seconds"])
                if res is None or not res["correct"]:
                    print(f"set {s + 1} {workload} seed {seed}: run failed "
                          "or incorrect")
                    bad = True
                    continue
                results.append(res)
            sets[s][workload] = results

    for workload in workloads:
        first, second = sets[0][workload], sets[1][workload]
        if len(first) < 2 or len(second) < 2:
            bad = True
            continue
        shares = {r["failed"] / r["attempted"] for r in first + second}
        print(f"\n{workload}: {len(first)} + {len(second)} runs, failed "
              f"share {sorted(shares)}")
        if len(shares) != 1:
            bad = True
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in rs]
                    for rs in (first, second)]
            (med1, sp1), (med2, sp2) = spread(vals[0]), spread(vals[1])
            shift = abs(med2 - med1) / med1 if med1 else float("inf")
            worst = max(sp1, sp2, shift)
            if worst < m["bound"] / 3:
                verdict = "steady"
            elif worst <= m["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO NOISY"
                bad = True
            print(f"  {m['name']:<14} medians {med1:<11.6g} {med2:<11.6g} "
                  f"{m['unit']:<6} spreads {sp1:6.2%} {sp2:6.2%} shift "
                  f"{shift:6.2%} bound {m['bound']:.0%}  {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
