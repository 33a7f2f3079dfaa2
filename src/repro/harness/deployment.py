"""The pieces every deployment is built from, defined once.

Single-group scenarios (:mod:`repro.harness.scenario`), sharded ones
(:mod:`repro.sharding.cluster`), sharded ones hosted on a wall clock
(:mod:`repro.runtime.scenario`) and the figure-exact runs
(:mod:`repro.harness.figures`) build the same protocol objects in the
same order -- servers, then clients, then the host starts, then the
workload drivers -- from the pieces here: the shared config fields, the
failure-detector and driver factories, the state-machine table, and the
run surface (adoptions, latencies, quiescence, the run loop).  Every
random stream is :func:`~repro.sim.loop.seeded_rng` of the config seed
and a stream name, so a wall-clock run draws the same operations and
arrivals as the simulated run of the same config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.admission import TokenBucket
from repro.core.server import OARConfig
from repro.failure.detector import (
    FailureDetector,
    HeartbeatFailureDetector,
    ScriptedFailureDetector,
)
from repro.faults.injection import FaultSchedule
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.loop import Simulator, seeded_rng
from repro.sim.network import SimNetwork
from repro.sim.process import Process
from repro.sim.trace import TraceLog
from repro.statemachine import (
    BankMachine,
    CounterMachine,
    KVStoreMachine,
    StackMachine,
    StateMachine,
)
from repro.workload.drivers import ClosedLoopDriver, OpenLoopDriver
from repro.workload.openloop import PoissonProcess, SessionedOpenLoopDriver

MACHINE_CLASSES: Dict[str, type] = {
    "counter": CounterMachine,
    "stack": StackMachine,
    "kv": KVStoreMachine,
    "bank": BankMachine,
}


@dataclass
class DeploymentConfig:
    """The knobs every scenario kind shares (see the subclasses)."""

    seed: int = 0
    n_servers: int = 3  #: replicas per group
    n_clients: int = 1
    requests_per_client: int = 20
    machine: str = "counter"

    #: One-way link delay model; None = constant 1.0 (one phase per hop).
    latency: Optional[LatencyModel] = None

    #: "heartbeat" (live ◇S implementation) or "scripted" (suspicions are
    #: injected explicitly -- used by figure-exact scenarios).
    fd_kind: str = "heartbeat"
    fd_interval: float = 5.0
    fd_timeout: float = 15.0

    #: OAR protocol knobs.
    oar: OARConfig = field(default_factory=OARConfig)

    #: How clients execute read-only operations: None defers to
    #: ``oar.read_mode`` ("sequencer" orders reads like writes, the
    #: paper's base protocol; "optimistic" / "conservative" answer
    #: replica-locally).
    read_mode: Optional[str] = None

    #: Replica execution service model overrides: None defers to
    #: ``oar.exec_cost`` / ``oar.exec_lanes`` (default: free inline
    #: execution).  Setting them builds the servers with a per-operation
    #: execution cost and that many conflict-scheduled worker lanes.
    exec_cost: Optional[float] = None
    exec_lanes: Optional[int] = None
    #: Admission-control overrides: None defers to the ``oar`` config
    #: (default: disabled; see ``OARConfig.admission_limit``).
    admission_limit: Optional[int] = None
    read_queue_limit: Optional[int] = None

    #: Zipf skew of the skewed workloads.
    zipf_s: float = 1.2

    #: "closed" (latency-oriented), "open" (Poisson arrivals at
    #: ``open_rate`` requests/time-unit per client) or "session" (the
    #: overload harness: an arrival process multiplexing ``n_sessions``
    #: logical sessions per client, optional client-side token bucket,
    #: streaming latency recorder -- see ``repro.workload.openloop``).
    driver: str = "closed"
    open_rate: float = 0.2
    think_time: float = 0.0
    #: Time at which the drivers begin submitting.  A warm-up window
    #: lets pre-arranged work (a topology change scheduled via ``arm``)
    #: commit before traffic measures against it.
    driver_start_at: float = 0.0
    #: Client retransmission pacing (lost replies / crashed read
    #: targets); None disables retransmission.
    retry_interval: Optional[float] = None
    #: Session-driver knobs: the arrival process (None = Poisson at
    #: ``open_rate``), sessions per client, the client-side token bucket
    #: (``client_rate`` None disables throttling), and the warm-up cut
    #: for the latency recorder (ops submitted before ``measure_from``
    #: are excluded from percentiles).
    arrival: Optional[Any] = None
    n_sessions: int = 64
    client_rate: Optional[float] = None
    client_burst: float = 8.0
    measure_from: float = 0.0

    fault_schedule: Optional[FaultSchedule] = None

    #: Link-fault-plane installer; called with the built
    #: :class:`~repro.sim.network.SimNetwork` right after construction
    #: (e.g. ``lambda net: install_uniform_faults(net, drop=0.05)``).
    faults: Optional[Callable[[SimNetwork], None]] = None

    #: Hook for surgical fault injection; called with the built run
    #: before the simulation starts (e.g. to arm a crash-during-multicast
    #: interceptor or attach a rebalancer).
    arm: Optional[Callable[[Any], None]] = None

    #: Simulated-time and event budget.
    horizon: float = 10_000.0
    max_events: int = 2_000_000
    grace: float = 50.0
    trace_messages: bool = False
    #: "full" keeps the checker-grade protocol trace; "off" disables all
    #: tracing (zero-waste mode for throughput/soak runs -- ``check_all``
    #: and trace-based metrics need "full").
    trace_level: str = "full"

    def with_changes(self, **changes: Any) -> Any:
        """A copy of this config with some fields replaced."""
        return replace(self, **changes)

    def server_oar(self) -> OARConfig:
        """``oar`` with this config's exec and admission overrides."""
        return self.oar.with_exec_overrides(
            self.exec_cost, self.exec_lanes
        ).with_admission_overrides(self.admission_limit, self.read_queue_limit)


class DeploymentRun:
    """What every built deployment answers.

    Subclasses provide ``config``, ``sim``, ``network``, ``servers``,
    ``clients``, ``drivers`` and ``detectors``; a sharded run adds its
    ``rebalancers``.
    """

    #: Live rebalance coordinators; a single group has none.
    rebalancers: Sequence[Any] = ()

    @property
    def trace(self) -> TraceLog:
        return self.network.trace

    @property
    def correct_servers(self) -> List[Any]:
        return [s for s in self.servers if not s.crashed]

    def submitted_rids(self) -> List[str]:
        """Logical submissions (cross-shard txids count once)."""
        return [rid for driver in self.drivers for rid in driver.submitted]

    def adopted(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for client in self.clients:
            merged.update(client.adopted)
        return merged

    def latencies(self) -> List[float]:
        """Client-perceived latencies of every adopted logical operation."""
        return [adopted.latency for adopted in self.adopted().values()]

    def all_done(self) -> bool:
        """Drivers finished, rebalancers drained, exec lanes drained.

        A run is not quiescent while a live server still holds delivered
        operations in its execution engine: the machine state (and the
        outstanding replies) would still change.  Crashed servers never
        drain (crash-stop suppresses their timers) and are excluded, as
        are crashed rebalance coordinators: their stranded migrations
        are the recovery coordinator's job.
        """
        for driver in self.drivers:
            if not driver.done:
                return False
        for coordinator in self.rebalancers:
            if not coordinator.done and not coordinator.client.crashed:
                return False
        for server in self.servers:
            # The baseline protocols' servers have no execution engine.
            if not server.crashed and getattr(server, "exec_backlog", 0):
                return False
        return True

    def execute(self) -> Any:
        """Run to quiescence (+ grace period); returns self for chaining."""
        config = self.config
        if config.fault_schedule is not None:
            config.fault_schedule.apply(
                self.network, list(self.detectors.values())
            )
        if config.arm is not None:
            config.arm(self)
        deadline = config.horizon
        sim = self.sim
        drivers = self.drivers
        all_done = self.all_done

        def finished() -> bool:
            # Horizon first: it is one float compare, the driver sweep is
            # not, and this predicate runs after every event.
            if sim._now >= deadline:
                return True
            for driver in drivers:
                if not driver.done:
                    return False
            return all_done()

        sim.run_until(finished, max_events=config.max_events)
        # Grace: let replies/settlements in flight land before checking.
        sim.run(until=sim.now + config.grace, max_events=config.max_events)
        return self


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------

def make_machine(
    kind: str,
    placed_keys: Optional[Sequence[str]] = None,
    initial_balance: int = 1_000,
) -> StateMachine:
    """A fresh replica state machine of ``kind``.

    ``placed_keys`` is a shard's epoch-0 key ownership: the per-key
    machines (kv, bank) enforce it and support live migration, keyless
    ones ignore it.  Without a placement the bank starts with three
    seeded accounts.
    """
    cls = MACHINE_CLASSES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown machine kind: {kind} (choose from {tuple(MACHINE_CLASSES)})"
        )
    if cls is BankMachine:
        if placed_keys is None:
            seeded = ("alice", "bob", "carol")
            return BankMachine({name: initial_balance for name in seeded})
        return BankMachine(
            {account: initial_balance for account in placed_keys},
            owned=placed_keys,
        )
    if cls is KVStoreMachine:
        return KVStoreMachine(owned=placed_keys)
    return cls()


def detector_factory(
    detectors: Dict[str, FailureDetector],
    kind: str,
    interval: float,
    timeout: float,
    heartbeat: type = HeartbeatFailureDetector,
) -> Callable[[Sequence[str]], Callable[[Process], FailureDetector]]:
    """``factory(group)(host)`` builds ``host``'s detector over ``group``.

    Each detector is recorded in ``detectors`` by host pid.  ``heartbeat``
    is the heartbeat detector class, a parameter so a caller can
    substitute an instrumented subclass.
    """

    def for_group(group: Sequence[str]) -> Callable[[Process], FailureDetector]:
        def build(host: Process) -> FailureDetector:
            if kind == "heartbeat":
                detector: FailureDetector = heartbeat(
                    host, monitored=group, interval=interval, timeout=timeout
                )
            elif kind == "scripted":
                detector = ScriptedFailureDetector()
            else:
                raise ValueError(f"unknown fd kind: {kind}")
            detectors[host.pid] = detector
            return detector

        return build

    return for_group


def sim_network(config: DeploymentConfig) -> SimNetwork:
    """A fresh simulator and network for ``config``, faults installed."""
    sim = Simulator(seed=config.seed)
    latency = config.latency if config.latency is not None else ConstantLatency(1.0)
    network = SimNetwork(
        sim,
        latency=latency,
        trace_messages=config.trace_messages,
        trace_level=config.trace_level,
    )
    if config.faults is not None:
        config.faults(network)
    return network


def make_drivers(
    config: DeploymentConfig,
    clock: Any,
    clients: Sequence[Any],
    make_ops: Callable[[Any], Iterator[Any]],
    open_loop: type = OpenLoopDriver,
) -> List[Any]:
    """One workload driver per client, scheduled on ``clock``.

    ``clock`` is the simulator or anything with its ``schedule_at`` /
    ``schedule`` / ``call_soon`` surface; ``make_ops(rng)`` returns a
    client's operation stream; ``open_loop`` is the open-loop driver
    class (substitutable like the detector class).
    """
    drivers: List[Any] = []
    for client in clients:
        ops = make_ops(seeded_rng(config.seed, f"ops/{client.pid}"))
        if config.driver == "closed":
            driver: Any = ClosedLoopDriver(
                clock,
                client,
                ops,
                total=config.requests_per_client,
                think_time=config.think_time,
                start_at=config.driver_start_at,
            )
        elif config.driver == "open":
            driver = open_loop(
                clock,
                client,
                ops,
                total=config.requests_per_client,
                rate=config.open_rate,
                rng=seeded_rng(config.seed, f"arrivals/{client.pid}"),
                start_at=config.driver_start_at,
            )
        elif config.driver == "session":
            bucket = (
                TokenBucket(config.client_rate, burst=config.client_burst)
                if config.client_rate is not None
                else None
            )
            driver = SessionedOpenLoopDriver(
                clock,
                client,
                ops,
                total=config.requests_per_client,
                arrival=(
                    config.arrival
                    if config.arrival is not None
                    else PoissonProcess(config.open_rate)
                ),
                rng=seeded_rng(config.seed, f"arrivals/{client.pid}"),
                n_sessions=config.n_sessions,
                start_at=config.driver_start_at,
                bucket=bucket,
                measure_from=config.measure_from,
            )
        else:
            raise ValueError(f"unknown driver kind: {config.driver}")
        drivers.append(driver)
    return drivers
