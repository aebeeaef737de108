#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 --first-seed 1 [--workloads a,b]

Runs perfbench/run.py --runs times per workload, each with its own
seed, and prints for every end-to-end metric the median of the runs
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, set
beside the metric's bound from BENCHMARK.json, as a markdown table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    rows = []
    for wl in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print(f"{wl} seed {seed}: exit {out.returncode}", file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().split("\n")[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
                return 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {wl} seed {seed} done", file=sys.stderr)
        for name in sorted(values):
            v = values[name]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            rows.append((wl, name, med, spread, bounds.get(name, 0)))

    lines = [
        f"| workload | metric | median of {args.runs} | IQR / median | bound | within bound/3 |",
        "|---|---|---:|---:|---:|:---:|",
    ]
    for wl, name, med, spread, bound in rows:
        ok = "yes" if spread < bound / 3 else "no"
        lines.append(f"| {wl} | {name} | {med:.4g} | {spread:.3f} | {bound} | {ok} |")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
