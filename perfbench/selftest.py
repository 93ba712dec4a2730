#!/usr/bin/env python3
"""Quick self-test of the benchmark (about two minutes):

    python3 perfbench/selftest.py

1. a short untraced and a short traced run of every workload, all answer
   checks on: each must report correct with no failed operation;
2. the same short run with the answer transcript perturbed in each of
   several ways: each must be caught (incorrect, or a failed operation).
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("cold_create", "alpha_refine", "routed_label_loop")
PERTURBATIONS = ("topk_score", "topk_order", "next_repeat", "label_count",
                 "quality", "status")


def run(workload, trace=0, perturb=""):
    cmd = ["python3", str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--min-iterations", "0"]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            ok = result is not None and result["correct"] and result["failed"] == 0
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: "
                  f"{'no result' if result is None else 'correct=%s failed=%d/%d' % (result['correct'], result['failed'], result['attempted'])}")
            failures += not ok
    for kind in PERTURBATIONS:
        result = run("routed_label_loop", perturb=kind)
        caught = result is not None and (not result["correct"] or result["failed"] > 0)
        print(f"{'ok  ' if caught else 'FAIL'} perturbed transcript '{kind}' "
              f"{'caught' if caught else 'NOT caught'}")
        failures += not caught
    print("self-test passed" if failures == 0 else f"self-test: {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
