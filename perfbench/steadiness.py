#!/usr/bin/env python3
"""Steadiness check for the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json as independent sets of 10 runs, each
run with its own seed and BENCHMARK.json's run_seconds, and prints per
metric each set's median and quartiles and the spread (Q3 - Q1) / median.

The sets agree when, for every metric, each later set's median lies within
the metric's bound of the first set's, in either direction; when every
spread but setup_s's lies within the bound; and when the share of failed
operations is the same in every set. setup_s is one cold set-up per run, so
its spread is the host's speed from one process to the next, which no
repetition inside a run can take out without timing a warm set-up instead.
Its spread is printed, and marked "wide" when over the bound, but only its
median is held to the bound.

    python3 perfbench/steadiness.py [--sets 2]

Run it from the repository root. Exit code 0 when every workload agrees.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                 f"{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--sets", type=int, default=2)
    args = p.parse_args()
    seconds = bench["run_seconds"]

    all_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(args.sets):
            seeds = [1000 * s + i + 1 for i in range(RUNS)]
            sets.append([run_once(workload, seed, seconds) for seed in seeds])
        shares = {sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in sets}
        print(f"\n{workload}: {args.sets} sets x {RUNS} runs, {seconds} s "
              f"each; failed share per set: {sorted(shares)}")
        ok = len(shares) == 1
        print(f"  {'metric':<18} {'set':>3} {'Q1':>12} {'median':>12} "
              f"{'Q3':>12} {'spread':>7} {'shift':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_median = None
            for k, runs in enumerate(sets):
                q1, med, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in runs])
                if first_median is None:
                    first_median = med
                shift = (med - first_median) / first_median
                verdict = []
                if spread > bound:
                    verdict.append("wide" if name == "setup_s" else "SPREAD")
                if abs(shift) > bound:
                    verdict.append("SHIFT")
                ok = ok and not {"SPREAD", "SHIFT"} & set(verdict)
                print(f"  {name:<18} {k + 1:>3} {q1:>12.6g} {med:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.4f} {shift:>+7.4f} "
                      f"{bound:>6}  {' '.join(verdict) or 'ok'}")
        print(f"  => {workload}: {'agree' if ok else 'DISAGREE'}")
        all_ok = all_ok and ok
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
