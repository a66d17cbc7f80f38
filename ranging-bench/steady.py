#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code, compared
within the bounds BENCHMARK.json fixes.

    python3 ranging-bench/steady.py [--seeds 10] [--workloads acquire,roam,tdoa]

Run from the repository root. For each workload it runs the benchmark
command once per seed (set A: seeds 1..N, set B: seeds 101..100+N) and,
per end-to-end metric, reports the spread of each set (distance between
the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) and how far set B's
median moved from set A's in the worse direction. It fails when a
spread other than ``setup_s``'s exceeds the metric's bound, when a
median moved by more than the bound, or when a run reports an incorrect
output. Spreads under a third of the bound are marked steady.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for base in (1, 101):
            runs = [run_once(bench, workload, base + i) for i in range(args.seeds)]
            sets.append({m["name"]: [r[m["name"]] for r in runs] for m in bench["end_to_end"]})
        print(f"== {workload}: {args.seeds} seeds per set")
        print(f"{'metric':16} {'median A':>12} {'median B':>12} {'spread A':>9} {'spread B':>9} {'worse':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a if m["better"] == "lower" else (med_a - med_b) / med_a
            spreads = (spread(a), spread(b))
            bad = worse > bound or (name != "setup_s" and max(spreads) > bound)
            tag = "FAIL" if bad else ("steady" if max(spreads) < bound / 3 else "ok")
            ok &= not bad
            print(f"{name:16} {med_a:12.6g} {med_b:12.6g} {spreads[0]:9.3f} {spreads[1]:9.3f} {worse:7.3f} {bound:6.2f}  {tag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
