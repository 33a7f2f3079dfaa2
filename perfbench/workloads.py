"""The four benchmark workloads and their timed (untraced) rounds.

Every workload drives only public surfaces of the ``repro`` package:
``build_sharded_scenario`` / ``ShardedRun.execute`` for the simulator,
``run_runtime_scenario`` for the loopback TCP cluster, and the checkers
in ``repro.analysis.checkers``.  A *round* builds, drives and checks one
workload instance; ``run.py`` repeats rounds until the time budget is
spent and keeps the fastest round of each piece of work.  Inputs derive
from the seed alone, so every round of a simulator run is bit-identical
(``run.measure`` checks it).
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.runtime.scenario as runtime_scenario
from repro.analysis import checkers
from repro.analysis.checkers import CheckFailure
from repro.core.server import OARConfig
from repro.faults import FaultSchedule
from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import ShardedScenarioConfig, build_sharded_scenario
from repro.sim.latency import UniformLatency
from repro.statemachine.base import OpResult, WrongShard

#: Builds timed per scenario; ``setup_s`` is their median (a build takes
#: about a millisecond, so one sample is mostly timer noise).
SETUP_REPEATS = 3
#: Repeats of the linear checks (milliseconds each); the fastest is kept.
CHEAP_CHECK_REPEATS = 51

# -- sim-ordered-kv ----------------------------------------------------
#: 4 groups x 3 replicas, 8 open-loop Poisson clients, kv_ops over 256
#: uniform keys.  Every op (gets too) is ordered by its group's
#: sequencer; offered load is 6 ops/unit against 8 ops/unit of ordering
#: capacity (order_cost 0.5 per group), and each replica executes on 4
#: lanes at exec_cost 1.0.  12k ops: long enough for the sequencer's
#: O(history) scans to cost throughput (3.1k ops/s at 4k ops, 1.6k at
#: 16k on a 2-vCPU VM).
ORDERED_KV_OPS = 12_000

# -- sim-local-reads ----------------------------------------------------
#: 2 groups x 3 replicas, 8 open-loop clients, Zipf(1.2) over 256 keys
#: with 90% gets answered by one replica (read_mode "optimistic").  The
#: costed read path (read_cost 0.5, 6 reads/unit of capacity per group)
#: runs at about two thirds load.  One-way delays are uniform in
#: [0.5, 1.5]: with constant hops most reads take exactly 2.5 units and
#: the percentiles would sit on that value at every seed.
LOCAL_READS_OPS = 32_000

# -- sim-failover-checked -------------------------------------------------
#: 2 groups x 3 replicas running the bank, 30% cross-shard 2PC
#: transfers; s0.p1 (shard 0's first sequencer) crashes at t=50 under a
#: heartbeat detector (interval 2, timeout 8).  One-way delays are
#: uniform in [0.5, 1.5].  The full checker bundle is super-linear in
#: ops per epoch (400 ops: ~5 s; 1,200 ops: >2 min), so each round runs
#: FAILOVER_RUNS independent 160-op scenarios: 1,280 latency samples
#: support a p99, and the check time is averaged over that many inputs.
FAILOVER_RUNS = 8
FAILOVER_OPS = 160
CRASH_AT = 50.0
CRASHED_SEQUENCER = "s0.p1"
FD_TIMEOUT = 8.0

# -- tcp-oar -------------------------------------------------------------
#: One group of 3 replicas over loopback TCP (binary codec, turn-boundary
#: flushing), 4 clients, kv_ops over 256 uniform keys.  Phase (a) offers
#: TCP_RATE_A ops/s, about a quarter of what phase (b) sustains (~2k
#: ops/s on a 2-vCPU VM), and measures latency from each request's due
#: time; phase (b) offers far above capacity and measures throughput.
#: One scenario time unit is one wall-clock millisecond (time_scale).
TCP_RATE_A = 500.0
TCP_OPS_A = 1_000
TCP_RATE_B = 50_000.0
TCP_OPS_B = 2_500
TCP_TIME_SCALE = 0.001
TCP_SEGMENTS = 20
TCP_CLIENTS = 4


def ordered_kv_configs(seed: int) -> List[ShardedScenarioConfig]:
    return [
        ShardedScenarioConfig(
            n_shards=4,
            n_servers=3,
            n_clients=8,
            requests_per_client=ORDERED_KV_OPS // 8,
            machine="kv",
            workload="uniform",
            n_keys=256,
            driver="open",
            open_rate=0.75,
            oar=OARConfig(order_cost=0.5),
            exec_cost=1.0,
            exec_lanes=4,
            trace_level="off",
            seed=seed,
        )
    ]


def local_reads_configs(seed: int) -> List[ShardedScenarioConfig]:
    return [
        ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=8,
            requests_per_client=LOCAL_READS_OPS // 8,
            machine="kv",
            workload="readheavy",
            zipf_s=1.2,
            read_ratio=0.9,
            n_keys=256,
            read_mode="optimistic",
            driver="open",
            open_rate=1.0,
            latency=UniformLatency(0.5, 1.5),
            oar=OARConfig(order_cost=0.5, read_cost=0.5),
            trace_level="off",
            seed=seed,
        )
    ]


def failover_configs(seed: int) -> List[ShardedScenarioConfig]:
    return [
        ShardedScenarioConfig(
            n_shards=2,
            n_servers=3,
            n_clients=4,
            requests_per_client=FAILOVER_OPS // 4,
            machine="bank",
            workload="cross",
            cross_ratio=0.3,
            driver="open",
            open_rate=0.5,
            latency=UniformLatency(0.5, 1.5),
            fd_interval=2.0,
            fd_timeout=FD_TIMEOUT,
            fault_schedule=FaultSchedule().crash(CRASH_AT, CRASHED_SEQUENCER),
            trace_level="full",
            seed=seed * FAILOVER_RUNS + index,
        )
        for index in range(FAILOVER_RUNS)
    ]


def cheap_check(run: Any) -> None:
    """Per-shard total order and replica convergence (cost linear in ops)."""
    for servers in run.shards:
        checkers.check_total_order(servers)
        checkers.check_replica_convergence(servers)


def full_check(run: Any) -> None:
    """The whole checker bundle; every paper property on the full trace."""
    run.check_all(strict=False)


@dataclass(frozen=True)
class SimSpec:
    configs: Callable[[int], List[ShardedScenarioConfig]]
    check: Callable[[Any], None]
    #: Times the check is repeated per scenario (the fastest is kept):
    #: the linear checks take milliseconds, the full bundle seconds.
    check_repeats: int
    #: Segments each scenario's drive is timed in (see ``segments``).
    segments: int


SIM_WORKLOADS: Dict[str, SimSpec] = {
    "sim-ordered-kv": SimSpec(ordered_kv_configs, cheap_check, CHEAP_CHECK_REPEATS, 40),
    "sim-local-reads": SimSpec(local_reads_configs, cheap_check, CHEAP_CHECK_REPEATS, 40),
    "sim-failover-checked": SimSpec(failover_configs, full_check, 1, 5),
}
WORKLOADS = tuple(SIM_WORKLOADS) + ("tcp-oar",)


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------

def count_failed(view: Any) -> Tuple[int, int]:
    """(submitted, failed) logical ops of one run.

    A failed op was submitted but never adopted, or adopted with a
    system refusal: an ``overloaded`` shed or a terminal ``WrongShard``.
    An application outcome with ``ok=False`` (a get on a missing key, a
    refused withdrawal) is a correct answer, not a failure.  A
    cross-shard transaction is one logical op.
    """
    adopted = view.adopted()
    submitted = view.submitted_rids()
    failed = 0
    for rid in submitted:
        reply = adopted.get(rid)
        if reply is None:
            failed += 1
            continue
        value = reply.value
        if isinstance(value, OpResult) and not value.ok and (
            value.error == "overloaded" or isinstance(value.value, WrongShard)
        ):
            failed += 1
    return len(submitted), failed


@dataclass
class Round:
    """One measured repetition of a workload."""

    setup_s: List[float] = field(default_factory=list)
    #: Wall seconds of each scenario's drive (tcp-oar: phase (b)'s
    #: measurement window) and of each scenario's check.
    drive_s: List[float] = field(default_factory=list)
    check_s: List[float] = field(default_factory=list)
    #: Ops that completed without failure inside the drives.
    drive_ops: int = 0
    submitted: int = 0
    failed: int = 0
    #: Client latencies in scenario time units (sim: simulated time;
    #: tcp-oar: wall milliseconds from each request's due time).
    latencies: List[float] = field(default_factory=list)
    #: Deterministic outputs; equal across rounds of one sim run.
    fingerprint: Tuple[Any, ...] = ()
    wall_s: float = 0.0
    #: (name, start, end) of each build/drive/check, perf_counter time.
    phases: List[Tuple[str, float, float]] = field(default_factory=list)

    def phase(self, name: str, started: float) -> float:
        """Record a phase that began at ``started``; returns its length."""
        ended = time.perf_counter()
        self.phases.append((name, started, ended))
        return ended - started


def _stamp_adoptions(clients: List[Any]) -> List[float]:
    """Wall-clock stamp of every adoption, via the clients' public
    ``on_adopt`` hook (chained, so the drivers still see every reply)."""
    stamps: List[float] = []
    for client in clients:
        def stamp(adopted: Any, chained: Any = client.on_adopt) -> None:
            stamps.append(time.perf_counter())
            if chained is not None:
                chained(adopted)
        client.on_adopt = stamp
    return stamps


def segments(times: List[float], count: int) -> List[float]:
    """Durations of ``count`` consecutive slices of a drive.

    ``times`` runs from the drive's start through every adoption to its
    end; slice j ends at adoption ``len * j / count``.  The simulator
    repeats the exact same work between the same adoptions in every
    round, so ``run.py`` can keep each slice's fastest round: on a
    shared-vCPU host the CPU speed swings for seconds at a time, and a
    whole-round minimum only helps when one round ran fast throughout.
    """
    marks = [times[0]]
    marks += [times[(len(times) - 1) * j // count] for j in range(1, count)]
    marks.append(times[-1])
    return [end - start for start, end in zip(marks, marks[1:])]


@contextmanager
def _own_heap() -> Iterator[None]:
    """Collect, then freeze the survivors for the span of a measured drive.

    The benchmark process holds the harness, earlier rounds' results
    and (on tcp-oar) the previous phase's run; without the freeze every
    full collection inside the drive walks that heap too, and on the
    wall clock one such pause (50-100 ms) moves a p99.  Objects the
    drive itself creates are collected as usual.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _timed_check(check: Callable[[Any], None], run: Any, repeats: int) -> float:
    """Best of ``repeats`` timings of a check (it does the same work each time)."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        check(run)
        samples.append(time.perf_counter() - started)
    return min(samples)


def sim_round(
    spec: SimSpec,
    seed: int,
    on_run: Optional[Callable[[Any], None]] = None,
    trace_level: Optional[str] = None,
    repeats: bool = True,
) -> Round:
    """Build, drive and check every scenario of one sim workload round.

    ``on_run`` is called with each built run before it executes (the
    traced run installs its counters and keeps the runs);
    ``trace_level`` overrides the workload's; ``repeats=False`` builds
    and checks once (traced passes count calls, and repeats would
    multiply them).
    """
    began = time.perf_counter()
    result = Round()
    fingerprint = []
    for config in spec.configs(seed):
        if trace_level is not None:
            config = config.with_changes(trace_level=trace_level)
        for _ in range(SETUP_REPEATS if repeats else 1):
            gc.collect()
            started = time.perf_counter()
            run = build_sharded_scenario(config)
            result.setup_s.append(time.perf_counter() - started)
        result.phase("sharding.build", started)
        if on_run is not None:
            on_run(run)
        stamps = _stamp_adoptions(run.clients)
        with _own_heap():
            started = time.perf_counter()
            run.execute()
            result.phase("sharding.execute", started)
        result.drive_s.extend(
            segments([started] + stamps + [result.phases[-1][2]], spec.segments)
        )
        if not run.all_done():
            raise CheckFailure(f"seed {config.seed}: run did not reach quiescence")
        started = time.perf_counter()
        result.check_s.append(_timed_check(
            spec.check, run, spec.check_repeats if repeats else 1
        ))
        result.phase("analysis.check", started)
        submitted, failed = count_failed(run)
        result.submitted += submitted
        result.failed += failed
        result.drive_ops += submitted - failed
        latencies = run.latencies()
        result.latencies.extend(latencies)
        fingerprint.append(
            (run.sim.now, run.sim.events_processed, run.network.stats()["sent"],
             tuple(sorted(latencies)))
        )
    result.fingerprint = tuple(fingerprint)
    result.wall_s = time.perf_counter() - began
    return result


# ----------------------------------------------------------------------
# tcp-oar
# ----------------------------------------------------------------------

class TimedTcpCluster(TcpCluster):
    """A TcpCluster whose ``start`` (bind every listener, start every
    process) is timed into a caller-owned list."""

    def __init__(self, setup_times: List[float], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._setup_times = setup_times

    async def start(self) -> None:
        started = time.perf_counter()
        await super().start()
        self._setup_times.append(time.perf_counter() - started)


class ScheduledOpenLoopDriver:
    """Open-loop Poisson arrivals that keep their schedule.

    ``OpenLoopDriver`` schedules each arrival from the time the previous
    one actually fired, so on a wall clock every late timer pushes all
    later arrivals back and a stalled loop silently lowers the offered
    rate.  This driver draws the same seeded gaps but schedules arrival
    k at its absolute due time, so a late arrival fires as soon as the
    loop is free and the lateness is measured, not absorbed.  Same
    surface as ``OpenLoopDriver`` (``done``, ``submitted``).
    """

    def __init__(
        self,
        sim: Any,
        client: Any,
        ops: Iterator[Any],
        total: int,
        rate: float,
        rng: random.Random,
        start_at: float = 0.0,
    ) -> None:
        self.sim = sim
        self.client = client
        self.ops = ops
        self.remaining = total
        self.rate = rate
        self.rng = rng
        self.submitted: List[str] = []
        #: Due time of each submission, in scenario units from ``base``.
        self.due: List[float] = []
        #: The cluster clock (seconds) at the drivers' time zero.
        self.base = client.env.now
        self._next_due = start_at
        self._schedule_next()

    @property
    def done(self) -> bool:
        return self.remaining == 0 and self.client.outstanding == 0

    def _schedule_next(self) -> None:
        self._next_due += self.rng.expovariate(self.rate)
        self.sim.schedule_at(self._next_due, self._fire)

    def _fire(self) -> None:
        self.remaining -= 1
        self.due.append(self._next_due)
        self.submitted.append(self.client.submit(next(self.ops)))
        if self.remaining > 0:
            self._schedule_next()


@contextmanager
def patched(module: Any, name: str, replacement: Any) -> Iterator[None]:
    """Replace ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def tcp_config(
    seed: int,
    rate: float,
    ops: int,
    cluster_factory: Callable[..., Any],
    trace_level: str = "off",
) -> RuntimeScenarioConfig:
    scenario = ShardedScenarioConfig(
        n_shards=1,
        n_servers=3,
        n_clients=TCP_CLIENTS,
        requests_per_client=ops // TCP_CLIENTS,
        machine="kv",
        workload="uniform",
        n_keys=256,
        driver="open",
        # per client, per scenario unit (one millisecond)
        open_rate=rate / TCP_CLIENTS * TCP_TIME_SCALE,
        trace_level=trace_level,
        seed=seed,
    )
    return RuntimeScenarioConfig(
        scenario=scenario,
        time_scale=TCP_TIME_SCALE,
        tcp_cluster_factory=cluster_factory,
        trace_level=trace_level,
        timeout=60.0,
    )


def due_time_delays(run: Any) -> Tuple[List[float], List[float]]:
    """(latency, generator lag) per request, in ms from its due time."""
    scale = run.config.time_scale
    adopted = run.adopted()
    latencies: List[float] = []
    lags: List[float] = []
    for driver in run.drivers:
        for rid, due in zip(driver.submitted, driver.due):
            due_s = driver.base + due * scale
            reply = adopted[rid]
            latencies.append((reply.adopt_time - due_s) * 1000.0)
            lags.append((reply.submit_time - due_s) * 1000.0)
    return latencies, lags


def tcp_phase(config: RuntimeScenarioConfig) -> Any:
    # The runtime's open-loop clients run on the schedule-keeping driver.
    with patched(runtime_scenario, "OpenLoopDriver", ScheduledOpenLoopDriver):
        run = run_runtime_scenario(config)
    if not run.completed or not run.all_done():
        raise CheckFailure("tcp run did not reach quiescence before its timeout")
    return run


def tcp_round(
    seed: int,
    cluster_factory: Optional[Callable[[List[float]], Callable[..., Any]]] = None,
    trace_level: str = "off",
    repeats: bool = True,
) -> Tuple[Round, List[Any]]:
    """Phase (a) at a fixed offered rate, then phase (b) far above capacity.

    ``cluster_factory(setup_times)`` returns the cluster constructor
    (the traced run substitutes a counting cluster).
    """
    began = time.perf_counter()
    result = Round()
    make = cluster_factory or (
        lambda times: (lambda **kw: TimedTcpCluster(times, **kw))
    )
    runs = []
    for phase, rate, ops in (("a", TCP_RATE_A, TCP_OPS_A), ("b", TCP_RATE_B, TCP_OPS_B)):
        with _own_heap():
            started = time.perf_counter()
            runs.append(
                tcp_phase(tcp_config(seed, rate, ops, make(result.setup_s), trace_level))
            )
            result.phase(f"runtime.phase_{phase}", started)
    run_a, run_b = runs
    for run in runs:
        started = time.perf_counter()
        result.check_s.append(_timed_check(
            cheap_check, run.view, CHEAP_CHECK_REPEATS if repeats else 1
        ))
        result.phase("analysis.check", started)
        submitted, failed = count_failed(run.view)
        result.submitted += submitted
        result.failed += failed
    # Goodput is phase (b)'s alone (phase (a) is paced by its schedule),
    # taken between its 10th and 90th percentile adoptions: the ramp
    # (lazy connects) and the drain tail are not throughput.
    adopted = sorted(reply.adopt_time for reply in run_b.adopted().values())
    low, high = int(len(adopted) * 0.1), int(len(adopted) * 0.9)
    result.drive_s = segments(adopted[low:high + 1], TCP_SEGMENTS)
    result.drive_ops = high - low
    result.latencies, _ = due_time_delays(run_a)
    result.wall_s = time.perf_counter() - began
    return result, runs
