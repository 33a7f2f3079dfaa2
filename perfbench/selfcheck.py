#!/usr/bin/env python3
"""Self-check of the benchmark: its contract and its determinism.

For every workload, one timed and one traced run must print exactly the
metrics BENCHMARK.json declares, with their units.  For the simulator
workloads, a second pair of runs at the same seed (a fresh process, so
a fresh hash seed too) must reproduce every deterministic metric
exactly, and a run at the next seed must change the latencies and the
kernel event count, which shows the seed really drives the generated
load.  Usage, from the repository root::

    python3 perfbench/selfcheck.py [--seed 0] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC_PREFIXES = (
    "latency_", "workload.latency_", "sim.", "broadcast.", "consensus."
)
SEED_DRIVEN = ("latency_p50_units", "latency_p90_units", "sim.events_per_op")


def run(workload: str, seed: int, trace: int) -> Dict[str, Dict[str, object]]:
    command = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    output = subprocess.run(
        command, cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip().splitlines()[-1]
    result = json.loads(output)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a check failed")
    return result["metrics"]


def deterministic(metrics: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    return {
        name: entry["value"]
        for name, entry in metrics.items()
        if (name.startswith(DETERMINISTIC_PREFIXES) and not name.endswith("self_us_per_op"))
        or name.endswith(".calls_per_op")
        or name == "failure.failover_gap_units"
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    declared = {
        trace: {metric["name"]: metric["unit"] for metric in benchmark[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    names = args.workloads or [workload["name"] for workload in benchmark["workloads"]]
    problems: List[str] = []
    for workload in names:
        first = {trace: run(workload, args.seed, trace) for trace in (0, 1)}
        for trace, metrics in first.items():
            printed = {name: entry["unit"] for name, entry in metrics.items()}
            if printed != declared[trace]:
                problems.append(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json")
        if not workload.startswith("sim-"):
            print(f"{workload}: wall-clock workload, contract checked only")
            continue
        values = {**deterministic(first[0]), **deterministic(first[1])}
        again = {
            **deterministic(run(workload, args.seed, 0)),
            **deterministic(run(workload, args.seed, 1)),
        }
        other = {
            **deterministic(run(workload, args.seed + 1, 0)),
            **deterministic(run(workload, args.seed + 1, 1)),
        }
        differing = sorted(name for name in values if values[name] != again[name])
        if differing:
            problems.append(f"{workload}: same seed, different {differing}")
        unchanged = [name for name in SEED_DRIVEN if values[name] == other[name]]
        if unchanged:
            problems.append(f"{workload}: seed {args.seed + 1} left {unchanged} unchanged")
        print(f"{workload}: {len(values)} deterministic metrics identical at seed "
              f"{args.seed}: {not differing}; seed-driven: {not unchanged}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
