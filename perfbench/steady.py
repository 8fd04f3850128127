#!/usr/bin/env python3
"""Steadiness check: runs the benchmark repeatedly on one build.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads single-table,join,dml-reuse] [--seconds S]
        [--save FILE] [--against FILE]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) for each
workload with tracing off, and prints, per workload and end-to-end metric,
the median, the first and third quartiles (statistics.quantiles, n=4), and
the spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
A spread above the bound fails the check; one above a third of the bound
is flagged. It also prints the share of failed operations. --save writes
the raw values as JSON; --against compares this set's medians with a saved
set's and fails when a metric got worse by more than its bound, or the
failed share moved.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    results = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(workload, seed, args.seconds)
            runs.append(res)
            print("%s seed %d: attempted %d failed %d correct %s" % (
                workload, seed, res["attempted"], res["failed"],
                res["correct"]), flush=True)
        results[workload] = runs
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print("\n== %s: %d runs, failed %d of %d operations" % (
            workload, len(runs), failed, attempted))
        print("%-26s %-7s %14s %14s %14s %8s %6s  %s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound",
            "verdict"))
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            if spread > m["bound"]:
                verdict = "OVER BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                verdict = "above bound/3"
            else:
                verdict = "ok"
            print("%-26s %-7s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" % (
                m["name"], m["unit"], med, q1, q3, spread, m["bound"],
                verdict))
        print(flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        print("== medians against %s" % args.against)
        for workload, runs in results.items():
            if workload not in before:
                continue
            old = before[workload]
            share_new = (sum(r["failed"] for r in runs) /
                         sum(r["attempted"] for r in runs))
            share_old = (sum(r["failed"] for r in old) /
                         sum(r["attempted"] for r in old))
            if share_new != share_old:
                ok = False
                print("%s: failed share moved %g -> %g" % (
                    workload, share_old, share_new))
            for m in metrics:
                a = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in old)
                b = statistics.median(
                    r["metrics"][m["name"]]["value"] for r in runs)
                w = worse_by(a, b, m["better"])
                verdict = "ok" if w <= m["bound"] else "WORSE THAN BOUND"
                ok = ok and w <= m["bound"]
                print("%-12s %-26s %14.6g -> %14.6g  worse by %+.4f "
                      "(bound %.3f)  %s" % (workload, m["name"], a, b, w,
                                            m["bound"], verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
