#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every metric of the chosen mode, prints the median over the runs and
the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. A spread should stay well
under its bound (a third of it leaves room for run-to-run noise).

    python3 perfbench/spread.py --workload ivf-openai-1536 --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 11-20 --raw runs.jsonl

Run it from the repository root. Exits non-zero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace, raw):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
    if raw:
        raw.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
        raw.flush()
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw", help="also append every run's result line to this file")
    args = ap.parse_args()
    raw = open(args.raw, "a") if args.raw else None
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        sys.exit(f"unknown workload (expected one of {', '.join(names)} or all)")
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    for workload in workloads:
        runs = [run(bench, workload, s, args.trace, raw) for s in seeds(args.seeds)]
        print(f"\n{workload} ({len(runs)} runs)")
        print(f"  {'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r[m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "  OVER" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
            shown = f"{bound:.3f}" if bound is not None else "-"
            print(f"  {m['name']:<36} {med:>14.6g} {spread:>8.4f} {shown:>6}{flag}")


if __name__ == "__main__":
    main()
