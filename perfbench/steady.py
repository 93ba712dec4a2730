#!/usr/bin/env python3
"""Steadiness command: runs workloads repeatedly and prints, per metric,
the median and the interquartile spread as a share of the median (the
statistic the end-to-end bounds in BENCHMARK.json are set from).

    python3 perfbench/steady.py [--workloads cold_create,...] [--runs 10]
        [--first-seed 1] [--seconds 10] [--trace 0] [--out steady.json]

Each run gets its own seed (first-seed, first-seed+1, ...).  A spread
at or above a third of the metric's bound is flagged with `!`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="", help="also write every run's result here")
    args = parser.parse_args()

    everything = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                ["python3", str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
                return 1
            results.append(result)
        everything[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, failed share {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median, iqr = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and iqr >= bound / 3:
                flag = " !"
            if bound is not None and name != "setup_s":
                worst = max(worst, iqr / bound)
            bound_text = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:34s} median {median:12.5g}  iqr/median {iqr:7.4f}  "
                  f"{bound_text}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
