#!/usr/bin/env python3
"""Steadiness check: run one workload N times, each with its own seed,
and print every metric's median, quartiles and spread (the distance
between the quartiles as a share of the median), so bounds come from
measured spread.

    python3 perfbench/steady.py --workload notla_long --runs 10 [--first-seed 1] [--seconds 20] [--trace 0]

Quartiles are Python's `statistics.quantiles(values, n=4)`. Also prints
the share of failed operations of each run, which must be identical, and
the figures each run prints beside its result (such as
`host.fma_gflops`), run by run.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    printed = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        fma = None
        for line in lines[:-1]:
            m = re.match(r"\s+(\S+)\s+(-?[0-9.]+) (\S+)", line)
            if m and m.group(1) not in result["metrics"]:
                printed.setdefault((m.group(1), m.group(3)), []).append(float(m.group(2)))
                if m.group(1) == "host.fma_gflops":
                    fma = float(m.group(2))
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
              + ("" if fma is None else f" (host.fma_gflops={fma:.4g})"), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in sorted(values.items()):
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6}")
    print(f"failed share per run: {sorted(set(shares))}")
    if printed:
        print("\nprinted figures (not gated): median over runs, spread, each run's value")
        for (name, unit), vals in sorted(printed.items()):
            med = statistics.median(vals)
            spread = ""
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:8.3f}"
            print(f"{name:<28} {med:>14.6g} {unit:<8} {spread} " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
