#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10

Runs one untraced run per seed, one after another, and prints for every
end-to-end metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (q3 - q1) / median
and the bound from BENCHMARK.json. Every run lasts BENCHMARK.json's
run_seconds, the length the bounds hold for.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seeds)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: float(f"{v['value']:.6g}") for k, v in result["metrics"].items()}
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} {values}",
              file=sys.stderr)

    print(f"{args.workload}, {len(runs)} runs of {seconds} s")
    print("| metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|")
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        print(f"| {metric['name']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{(q3 - q1) / med:.3f} | {metric['bound']} |")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(shares)}")


if __name__ == "__main__":
    main()
