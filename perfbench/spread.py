#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per seed for each named workload, in a fresh process
each time, and prints per metric the median over the seeds and the
quartile spread (Q3 - Q1, from ``statistics.quantiles(values, n=4)``) as
a share of that median, next to the metric's bound from BENCHMARK.json.
A benchmark is steady when every spread except setup_s is under a third
of its bound.  Usage, from the repository root::

    python3 perfbench/spread.py --seeds 10 sim-ordered-kv tcp-oar
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    command = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    output = subprocess.run(
        command, cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip().splitlines()[-1]
    result = json.loads(output)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a check failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    for workload in args.workloads:
        runs = [
            run_once(workload, seed, benchmark["run_seconds"])
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        print(f"{workload}: {args.seeds} seeds from {args.first_seed}")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- wide"
            print(f"  {name:20s} median {median:12.6g}  spread {spread:6.3f}"
                  f"  bound {bound:5.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
