#!/usr/bin/env python3
"""Run one benchmark workload; print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-ordered-kv --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats timed rounds (build, drive, check) while another
round fits in ``--seconds`` and prints the end-to-end metrics (see
``measure``); ``--trace 1`` makes one traced run, whatever
``--seconds`` says, and prints the per-layer metrics (see
``layers.py``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; a run whose
outputs fail a check prints ``"correct": false`` with no metrics and
exits 1.  The program under test is imported from ``src/`` next to this
directory; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: name -> unit of every end-to-end metric (each workload reports all).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ops_ok_frac": "fraction",
    "latency_p50_units": "units",
    "latency_p90_units": "units",
    "check_s": "s",
    "peak_rss_mb": "MB",
}


def measure(workload: str, seed: int, seconds: float) -> Tuple[int, int, Dict[str, float]]:
    """Timed rounds until the next would overrun ``seconds``.

    On shared-vCPU hosts the CPU speed swings by up to 1.8x for seconds
    at a time, and the swings only ever slow work down.  So the
    wall-clock figures keep the fastest round, as timeit does, slice by
    slice: each drive slice (``workloads.segments``) and each scenario's
    check keep their fastest round, tcp-oar keeps its fastest round's
    latency percentiles, and set-up time is the median of every build
    or cluster start.
    """
    import workloads
    from repro.analysis.checkers import CheckFailure
    from repro.analysis.stats import percentile

    if workload in workloads.SIM_WORKLOADS:
        spec = workloads.SIM_WORKLOADS[workload]
        one_round = lambda: workloads.sim_round(spec, seed)  # noqa: E731
    else:
        one_round = lambda: workloads.tcp_round(seed)[0]  # noqa: E731
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    rounds: List[Any] = []
    try:
        while True:
            # Rounds take turns on the CPUs the run may use: their speeds
            # differ by up to 2x for minutes on a shared host, and the
            # fastest-round rule below then sees each of them.
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            result = one_round()
            if rounds and result.fingerprint != rounds[0].fingerprint:
                raise CheckFailure("two rounds of one seed produced different outputs")
            rounds.append(result)
            longest = max(r.wall_s for r in rounds)
            if time.perf_counter() + longest > deadline:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    attempted = sum(r.submitted for r in rounds)
    failed = sum(r.failed for r in rounds)
    best_drive = sum(map(min, zip(*(r.drive_s for r in rounds))))
    metrics = {
        "setup_s": statistics.median(s for r in rounds for s in r.setup_s),
        "ops_per_s": rounds[0].drive_ops / best_drive,
        "ops_ok_frac": (attempted - failed) / attempted,
        "latency_p50_units": min(percentile(r.latencies, 0.5) for r in rounds),
        "latency_p90_units": min(percentile(r.latencies, 0.9) for r in rounds),
        "check_s": sum(map(min, zip(*(r.check_s for r in rounds)))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return attempted, failed, metrics


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from repro.analysis.checkers import CheckFailure

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    try:
        if args.trace:
            import layers

            attempted, failed, values = layers.traced_metrics(args.workload, args.seed)
            units = {name: unit for name, unit, _better in layers.PER_LAYER}
        else:
            attempted, failed, values = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    except CheckFailure as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps(
        {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
