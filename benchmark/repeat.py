#!/usr/bin/env python3
"""Repeatability check for the benchmark of record.

Runs two sets of K runs (K seeds, one fresh process each) of every workload
named in BENCHMARK.json, exactly as the driver would start them, and prints
for each workload x end-to-end metric: both medians, the quartile spread
(statistics.quantiles(values, n=4): (Q3 - Q1) / median) of each set, how far
the second median is worse than the first, and PASS/FAIL against the bound
in BENCHMARK.json. The spread of setup_s is printed but not judged.

    python3 benchmark/repeat.py [-k 10] [--workload NAME ...] [--first-seed 1]

Run it from the repository root. Exit status is 1 if anything fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct") or result.get("failed", 1) != 0:
        sys.exit(f"run failed: {' '.join(argv)} -> exit {proc.returncode}, result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-k", type=int, default=10, help="runs per set")
    ap.add_argument("--workload", action="append", help="only these workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"] if not args.workload or w["name"] in args.workload]
    ok = True
    print("| workload | metric | median A | median B | spread A | spread B | B worse by | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = []
        for s in range(2):
            seeds = range(args.first_seed + s * args.k, args.first_seed + (s + 1) * args.k)
            sets.append([run_once(spec["command"], workload, seed, spec["run_seconds"]) for seed in seeds])
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run[name] for run in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a if metric["better"] == "lower" else (med_a - med_b) / med_a
            spread_a, spread_b = spread(a), spread(b)
            good = worse <= bound and (name == "setup_s" or max(spread_a, spread_b) <= bound)
            ok &= good
            print(
                f"| {workload} | {name} | {med_a:.6g} | {med_b:.6g} | {spread_a:.2%} | {spread_b:.2%} "
                f"| {worse:+.2%} | {bound:.0%} | {'PASS' if good else 'FAIL'} |",
                flush=True,
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
