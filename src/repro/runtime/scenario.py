"""Sharded-scenario parity for the real backends (asyncio queues / TCP).

The simulator is the correctness oracle; this module is the proof that
the *same* protocol objects -- ``OARServer``, ``ShardedOARClient``, the
router, the replica-local read paths, the closed/open-loop drivers --
run unmodified over real event loops and real sockets.  It builds
through the same sharded assembly as
:func:`repro.sharding.cluster.build_sharded_scenario`
(:func:`~repro.sharding.cluster.assemble_sharded`), but hosts every
process on an :class:`~repro.runtime.host.AsyncioCluster` or
:class:`~repro.runtime.tcp.TcpCluster` instead of a ``SimNetwork``.

Two impedance mismatches are bridged here:

* **Time.**  Scenario configs speak simulated time units (a redirect
  delay of 5.0, a horizon of 20 000).  Wall-clock runs scale every
  time-valued knob by ``time_scale`` seconds per unit -- except the
  failure detector, whose wall-clock interval/timeout are set
  explicitly (``fd_interval``/``fd_timeout``): a scaled sim timeout can
  land under the event loop's scheduling jitter and manufacture false
  suspicions that the sim never sees.
* **Scheduling.**  The workload drivers only use the simulator's
  ``schedule_at`` / ``schedule`` / ``call_soon`` surface, so a thin
  :class:`_WallClock` adapter lets ``ClosedLoopDriver`` and
  ``OpenLoopDriver`` run verbatim over the asyncio loop.

The result object wraps a genuine
:class:`~repro.sharding.cluster.ShardedRun` whose ``network`` is the
real cluster, so ``check_all`` -- the full checker bundle, trace-based
properties included -- applies to socket runs exactly as it does to
simulated ones.

Over TCP the sequencer's order batching (``OARConfig.batch_interval``,
PR 2) defaults *on* (``tcp_batch_interval`` wall-clock seconds): over
real sockets every ordering message is a syscall, so amortizing
``SeqOrder`` traffic into ``OrderBatch`` frames is part of the
throughput story rather than an optional latency trade.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.client import ShardedOARClient
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import HeartbeatFailureDetector
from repro.runtime.host import AsyncioCluster
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import (
    ShardedRun,
    ShardedScenarioConfig,
    assemble_sharded,
    start_sharded_drivers,
)
from repro.workload.drivers import OpenLoopDriver

BACKENDS = ("asyncio", "tcp")


class _WallClock:
    """Duck-type of the Simulator's scheduling surface over asyncio.

    Delays arrive in simulated time units and are scaled to wall-clock
    seconds; ``schedule_at`` is relative to this clock's construction
    (the drivers' time zero).
    """

    __slots__ = ("_loop", "_scale", "_epoch")

    def __init__(self, loop: asyncio.AbstractEventLoop, scale: float) -> None:
        self._loop = loop
        self._scale = scale
        self._epoch = loop.time()

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        delay = self._epoch + when * self._scale - self._loop.time()
        self._loop.call_later(max(0.0, delay), callback)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._loop.call_later(delay * self._scale, callback)

    def call_soon(self, callback: Callable[[], None]) -> None:
        self._loop.call_soon(callback)


@dataclass(frozen=True)
class RuntimeScenarioConfig:
    """A sharded scenario bound to a real backend.

    ``scenario`` is the same description the simulator runs; the fields
    here say how to host it on a wall clock.
    """

    scenario: ShardedScenarioConfig
    backend: str = "tcp"  #: "asyncio" (in-process queues) or "tcp"
    codec: Any = "binary"  #: TCP wire codec: "binary" | "pickle" | object
    link_delay: float = 0.0005  #: asyncio backend's per-hop delay (s)
    time_scale: float = 0.04  #: wall-clock seconds per simulated unit
    #: Wall-clock failure detector cadence (not scaled from the
    #: scenario: see module docstring).
    fd_interval: float = 0.2
    fd_timeout: float = 1.5
    #: Sequencer order batching default for TCP, in wall-clock seconds;
    #: applied only when the scenario itself leaves batching off.
    #: ``None`` keeps batching off.
    tcp_batch_interval: Optional[float] = 0.002
    #: Coalescing buffer cap forwarded to :class:`TcpCluster`
    #: (``None`` keeps the transport default; ``1`` disables coalescing
    #: -- the pre-codec baseline shape used by the perf harness).
    flush_bytes: Optional[int] = None
    #: Timed coalescing window forwarded to :class:`TcpCluster`
    #: (``None`` = flush at the turn boundary; throughput cells set a
    #: small window to trade per-hop latency for fewer syscalls).
    tcp_flush_interval: Optional[float] = None
    #: Alternative TCP cluster constructor (same keyword surface as
    #: :class:`TcpCluster`); the perf harness uses this to host the
    #: scenario on a reconstructed pre-PR transport for the baseline
    #: cell.  ``None`` uses :class:`TcpCluster`.
    tcp_cluster_factory: Optional[Callable[..., Any]] = None
    timeout: float = 60.0  #: wall-clock quiescence deadline (s)
    grace: float = 0.05  #: settle window after quiescence (s)
    #: Trace level override; ``None`` defers to the scenario's
    #: (``check_all`` needs "full"; throughput runs want "off").
    trace_level: Optional[str] = None

    def with_changes(self, **changes: Any) -> "RuntimeScenarioConfig":
        return replace(self, **changes)


@dataclass
class RuntimeShardedRun:
    """A completed wall-clock run plus its sim-shaped checker view.

    ``view`` is a real :class:`~repro.sharding.cluster.ShardedRun`
    whose ``network`` is the live cluster -- every property and the
    whole ``check_all`` bundle read through it unchanged.
    """

    config: RuntimeScenarioConfig
    cluster: Any
    view: ShardedRun
    completed: bool = False
    elapsed: float = 0.0  #: wall-clock seconds of the drive phase

    @property
    def trace(self):
        return self.cluster.trace

    @property
    def servers(self) -> List[OARServer]:
        return self.view.servers

    @property
    def clients(self) -> List[ShardedOARClient]:
        return self.view.clients

    @property
    def drivers(self) -> List[Any]:
        return self.view.drivers

    def adopted(self) -> Dict[str, Any]:
        return self.view.adopted()

    def latencies(self) -> List[float]:
        return self.view.latencies()

    def all_done(self) -> bool:
        return self.view.all_done()

    def ops_per_sec(self) -> float:
        """Adopted logical operations per wall-clock second."""
        if self.elapsed <= 0:
            return 0.0
        return len(self.view.adopted()) / self.elapsed

    def transport_stats(self) -> Dict[str, int]:
        stats = getattr(self.cluster, "stats", None)
        return stats() if callable(stats) else {}

    def check_all(self, strict: bool = True, at_least_once: bool = True) -> None:
        """The full sharded checker bundle, on the wall-clock trace."""
        self.view.check_all(strict=strict, at_least_once=at_least_once)


def _scaled_oar(config: RuntimeScenarioConfig) -> OARConfig:
    """The scenario's OAR knobs, overridden and scaled to wall clock."""
    oar = config.scenario.server_oar()
    scale = config.time_scale

    def interval(value: Optional[float]) -> Optional[float]:
        if value is None or value == 0.0:
            return value
        return max(value * scale, OARConfig.MIN_INTERVAL)

    batch_interval = interval(oar.batch_interval)
    if (
        config.backend == "tcp"
        and not batch_interval
        and config.tcp_batch_interval
    ):
        batch_interval = max(config.tcp_batch_interval, OARConfig.MIN_INTERVAL)
    return replace(
        oar,
        batch_interval=batch_interval,
        order_cost=oar.order_cost * scale,
        read_cost=oar.read_cost * scale,
        exec_cost=oar.exec_cost * scale,
        gc_interval=interval(oar.gc_interval),
        sync_interval=interval(oar.sync_interval),
    )


def _make_cluster(config: RuntimeScenarioConfig) -> Any:
    scenario = config.scenario
    trace_level = (
        config.trace_level if config.trace_level is not None else scenario.trace_level
    )
    if config.backend == "tcp":
        kwargs: Dict[str, Any] = {}
        if config.flush_bytes is not None:
            kwargs["flush_bytes"] = config.flush_bytes
        factory = config.tcp_cluster_factory or TcpCluster
        return factory(
            seed=scenario.seed,
            codec=config.codec,
            trace_level=trace_level,
            flush_interval=config.tcp_flush_interval,
            **kwargs,
        )
    if config.backend == "asyncio":
        return AsyncioCluster(
            link_delay=config.link_delay,
            seed=scenario.seed,
            trace_level=trace_level,
        )
    raise ValueError(f"unknown backend: {config.backend} (choose from {BACKENDS})")


async def execute_runtime_scenario(
    config: RuntimeScenarioConfig,
) -> RuntimeShardedRun:
    """Build, drive to quiescence, and tear down -- inside a running loop."""
    scenario = config.scenario
    if scenario.driver not in ("closed", "open"):
        raise ValueError(
            "runtime scenarios support the closed/open drivers "
            f"(got {scenario.driver!r}; the session driver is sim-only)"
        )
    if scenario.faults is not None or scenario.fault_schedule is not None:
        raise ValueError(
            "link-fault injection is sim-only; runtime runs exercise "
            "real sockets (crash processes via cluster.crash instead)"
        )
    if scenario.arm is not None:
        raise ValueError(
            "the arm hook is sim-only (it runs against a simulator run "
            "before the simulation starts); drive a wall-clock run "
            "through its cluster instead"
        )

    cluster = _make_cluster(config)
    # Module globals looked up at call time, so instrumentation can
    # substitute the detector and open-loop driver classes.
    view = assemble_sharded(
        scenario,
        cluster,
        None,
        _scaled_oar(config),
        config.fd_interval,
        config.fd_timeout,
        HeartbeatFailureDetector,
        scale=config.time_scale,
    )
    await cluster.start()
    start_sharded_drivers(
        view, _WallClock(cluster.loop, config.time_scale), OpenLoopDriver
    )
    run = RuntimeShardedRun(config=config, cluster=cluster, view=view)

    started = time.perf_counter()
    run.completed = await cluster.run_until(view.all_done, timeout=config.timeout)
    run.elapsed = time.perf_counter() - started
    if config.grace > 0:
        await asyncio.sleep(config.grace)
    await cluster.shutdown()
    return run


def run_runtime_scenario(config: RuntimeScenarioConfig) -> RuntimeShardedRun:
    """Build and execute a wall-clock scenario; the one-call entry point."""
    return asyncio.run(execute_runtime_scenario(config))
