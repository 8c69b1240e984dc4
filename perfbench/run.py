#!/usr/bin/env python3
"""Benchmark of evmcontrol status checks: one command for every workload.

    python3 perfbench/run.py --workload cold_check --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each workload runs in a fresh process (``worker.py``), which pins the BLAS
thread count to 1.  For one workload the child's output is
passed through: metric lines, then the result JSON as the last line.  For
``all`` the workloads run one after another and their metrics are printed
by name with their units, followed by one JSON object over all of them.

The checkout must hold ``src/evmcontrol`` and ``case_study.json`` next to
this directory; without them the command exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_check", "warm_check")
CHILD_TIMEOUT_S = 175


def run_child(workload: str, args, capture: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/evmcontrol/__init__.py", "case_study.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not an evmcontrol checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_child(args.workload, args, capture=False).returncode

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = run_child(workload, args, capture=True)
        if child.returncode != 0:
            print(f"{workload}: exited with code {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:18s} {name:34s} {metric['value']:>14.6g} {metric['unit']}")
        print(f"{workload:18s} {'failed_op_share':34s} "
              f"{result['failed'] / result['attempted']:>14.6g} ratio "
              f"({result['failed']}/{result['attempted']})")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}.{name}": metric for name, metric in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
