"""A sharded OAR deployment: N independent replication groups, one service.

The paper's protocol totally orders *all* requests through a single
sequencer, which caps throughput at one ordering pipeline.  The sharded
cluster partitions the state machine by key (``repro.sharding.router``)
and runs one full OAR group -- its own sequencer, replicas, undo logs,
failure detectors and epochs -- per shard, all hosted on one
deterministic simulator so every existing checker and fault-injection
tool applies unchanged.

Consistency contract:

* per shard, everything the paper guarantees (total order, at-most/least
  once, external consistency of adopted replies);
* across shards, *atomicity* of multi-key operations via the client-
  coordinated escrow 2PC (see :class:`~repro.core.client.ShardedOARClient`
  and the ``tx_*`` operations of
  :class:`~repro.statemachine.bank.BankMachine`) -- checked by
  :func:`~repro.analysis.checkers.check_cross_shard_atomicity`.

There is deliberately *no* global order across shards: operations on
different shards are independent, which is exactly why throughput scales
(cf. Optimistic Parallel State-Machine Replication, Marandi & Pedone
2014).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analysis import checkers
from repro.core.client import ShardedOARClient
from repro.core.server import OARConfig, OARServer
from repro.failure.detector import FailureDetector, HeartbeatFailureDetector
from repro.harness.deployment import (
    MACHINE_CLASSES,
    DeploymentConfig,
    DeploymentRun,
    detector_factory,
    make_drivers,
    make_machine,
    sim_network,
)
from repro.sharding.router import RoutingTable, ShardRouter, make_router
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.statemachine import SplittableMachine
from repro.workload.drivers import OpenLoopDriver
from repro.workload.generators import (
    counter_ops,
    cross_shard_bank_ops,
    hot_key_bank_ops,
    hot_shift_kv_ops,
    kv_ops,
    read_heavy_bank_ops,
    read_heavy_kv_ops,
    stack_ops,
    zipfian_kv_ops,
)

SHARDED_MACHINES = ("kv", "bank", "counter", "stack")
WORKLOADS = ("uniform", "zipf", "hotshift", "cross", "readheavy", "hotkey")

#: Machines with per-key state: their sharded deployments carry the
#: key-ownership books and support live migration + the migration
#: atomicity checker.
MIGRATABLE_MACHINES = ("kv", "bank")


@dataclass
class ShardedScenarioConfig(DeploymentConfig):
    """Everything needed to reproduce one sharded experiment run.

    The shared fields (sizes, machine, latency, failure detector, ``oar``
    knobs, drivers, faults, budgets, trace) are documented on
    :class:`~repro.harness.deployment.DeploymentConfig`; ``n_servers``
    counts replicas *per shard*.
    """

    n_shards: int = 2
    n_clients: int = 2
    machine: str = "kv"
    router: str = "hash"  #: "hash" or "range"

    #: Workload family: "uniform" (kv over a flat key universe), "zipf"
    #: (kv, skewed), "hotshift" (kv, skewed with a hotspot that moves
    #: across the key space every ``shift_every`` ops -- the live-
    #: rebalancing stress), "cross" (bank transfers, cross-shard mix),
    #: "readheavy" (kv or bank, Zipf-skewed, ``read_ratio`` reads --
    #: the replica-local read-path mix of benchmark B12), "hotkey"
    #: (bank deposits/withdrawals/balances with ``hot_ratio`` of all
    #: traffic on one account -- the key-splitting stress of B14; its
    #: deposits break money-supply conservation, so the run swaps the
    #: conserved-total checks for ``check_fragment_conservation``).
    workload: str = "uniform"
    n_keys: int = 32
    shift_every: int = 150
    cross_ratio: float = 0.3
    read_ratio: float = 0.9
    hot_ratio: float = 0.8
    accounts_per_shard: int = 4
    initial_balance: int = 1_000

    #: Half-life of the clients' per-key load counters (the rebalance
    #: planner's statistic); None disables decay (all-time totals).
    load_half_life: Optional[float] = 250.0

    #: Pause before a WrongShard-redirected operation is retried (covers
    #: the window where a migrating key is owned by no shard).
    redirect_delay: float = 5.0

    #: Redirect budget per logical operation; once spent the WrongShard
    #: error is surfaced as a terminal adoption.
    max_redirects: int = 100

    horizon: float = 20_000.0
    max_events: int = 4_000_000


@dataclass
class ShardedRun(DeploymentRun):
    """A built (and, after ``execute``, completed) sharded deployment.

    On a wall-clock host (:mod:`repro.runtime.scenario`) ``network`` is
    the live cluster and ``sim`` is None.
    """

    config: ShardedScenarioConfig
    sim: Simulator
    network: SimNetwork
    router: ShardRouter  #: the static base placement (epoch 0)
    routing_table: RoutingTable  #: the authoritative epoched view
    shard_groups: Tuple[Tuple[str, ...], ...]
    shards: List[List[OARServer]]  #: servers, indexed by shard
    clients: List[ShardedOARClient]
    drivers: List[Any]
    detectors: Dict[str, FailureDetector]
    key_universe: Tuple[str, ...]
    #: The epoch-0 keys of each shard (the base router's placement).
    initial_placement: Tuple[Tuple[str, ...], ...]
    initial_total: Optional[int]  #: bank only: conserved money supply
    #: Rebalance coordinators attached to this run (see
    #: :func:`~repro.sharding.rebalance.attach_rebalancer`).
    rebalancers: List[Any] = field(default_factory=list)

    @property
    def servers(self) -> List[OARServer]:
        """All servers across shards (shard-major order)."""
        return [server for shard in self.shards for server in shard]

    @property
    def client_pids(self) -> List[str]:
        return [client.pid for client in self.clients]

    def correct_servers(self, shard: int) -> List[OARServer]:  # type: ignore[override]
        """One shard's live servers (a method here: it takes the shard)."""
        return [s for s in self.shards[shard] if not s.crashed]

    def routed_to(self, shard: int) -> List[str]:
        """Physical rids (ops and tx branches) routed to one shard."""
        return [
            rid for client in self.clients for rid in client.routed_to(shard)
        ]

    # ------------------------------------------------------------------
    # Checker bundle
    # ------------------------------------------------------------------

    def check_all(self, strict: bool = True, at_least_once: bool = True) -> None:
        """Per-shard paper properties plus cross-shard and migration atomicity.

        Completeness checks (at-least-once, every transaction decided,
        every migration done, no leftover escrow, conservation) only
        apply to quiescent runs; a run cut off mid-flight is checked for
        safety only.
        """
        quiescent = self.all_done()
        client_pids = self.client_pids + [
            coordinator.client.pid for coordinator in self.rebalancers
        ]
        # Shed requests were routed but deterministically refused (never
        # ordered); they are exempt from delivery-based properties.
        shed_rids: set = set()
        for client in self.clients:
            shed_rids |= getattr(client, "shed_rids", set())
        for shard, servers in enumerate(self.shards):
            routed = [
                rid for rid in self.routed_to(shard) if rid not in shed_rids
            ]
            checkers.check_single_shard_properties(
                self.trace,
                servers,
                client_pids,
                routed,
                strict=strict,
                at_least_once=at_least_once and quiescent,
            )
            # Replica-local reads routed to this shard observe
            # prefix-closed states of its adopted order (conservative
            # reads must; optimistic staleness is counted, not failed).
            checkers.check_read_consistency(
                self.trace,
                servers,
                lambda s=shard: make_machine(
                    self.config.machine,
                    self.initial_placement[s],
                    self.config.initial_balance,
                ),
                shard=shard,
            )
        checkers.check_cross_shard_atomicity(
            self.trace,
            self.shards,
            expected_total=self.initial_total,
            quiescent=quiescent,
        )
        checkers.check_fault_plane_accounting(self.trace, self.network)
        checkers.check_admission_accounting(
            self.trace,
            [server for servers in self.shards for server in servers],
            self.clients,
            self.drivers,
        )
        # A coordinator crash strands its migrations without making the
        # run non-quiescent (all_done excludes crashed coordinators), so
        # completeness claims only hold once every journal record is
        # terminal -- recovery coordinators drive the *same* record
        # objects to terminal, so this settles after a successful
        # resume.  Until then the checkers run in safety-only mode
        # (stranded is incomplete, not non-atomic).
        settled = quiescent and all(
            record.terminal
            for coordinator in self.rebalancers
            for record in coordinator.journal
        )
        if self.config.machine in MIGRATABLE_MACHINES:
            checkers.check_migration_atomicity(
                self.trace,
                self.shards,
                self.routing_table,
                self.key_universe,
                expected_total=self.initial_total,
                quiescent=settled,
            )
        if self.config.machine == "bank":
            # Hot-key splitting: every account that was ever split must
            # conserve its logical value exactly (fragments + escrows ==
            # initial placement + net adopted deltas).  A no-op when the
            # run never split anything.
            checkers.check_fragment_conservation(
                self.trace,
                self.shards,
                self.routing_table,
                initial_values={
                    account: self.config.initial_balance
                    for account in self.key_universe
                },
                quiescent=settled,
            )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

def _key_universe(config: ShardedScenarioConfig) -> Tuple[str, ...]:
    if config.machine == "bank":
        count = config.accounts_per_shard * config.n_shards
        return tuple(f"a{i:03d}" for i in range(count))
    return tuple(f"k{i:03d}" for i in range(config.n_keys))


def _make_ops(
    config: ShardedScenarioConfig,
    rng: random.Random,
    key_universe: Tuple[str, ...],
    accounts_by_shard: Tuple[Tuple[str, ...], ...],
) -> Iterator[Tuple[Any, ...]]:
    if config.machine == "counter":
        return counter_ops()
    if config.machine == "stack":
        return stack_ops(rng)
    if config.machine == "bank":
        if config.workload == "cross":
            return cross_shard_bank_ops(
                rng, accounts_by_shard, cross_ratio=config.cross_ratio
            )
        if config.workload == "readheavy":
            return read_heavy_bank_ops(
                rng, accounts_by_shard, read_ratio=config.read_ratio
            )
        if config.workload == "hotkey":
            # key_universe[0] is the hot account; the generator's own
            # 20% read mix applies (config.read_ratio is the readheavy
            # knob and defaults far too read-heavy for a write stress).
            return hot_key_bank_ops(rng, key_universe, hot_ratio=config.hot_ratio)
        return cross_shard_bank_ops(rng, accounts_by_shard, cross_ratio=0.0)
    if config.workload == "zipf":
        return zipfian_kv_ops(rng, key_universe, s=config.zipf_s)
    if config.workload == "hotshift":
        return hot_shift_kv_ops(
            rng, key_universe, s=config.zipf_s, shift_every=config.shift_every
        )
    if config.workload == "readheavy":
        return read_heavy_kv_ops(
            rng, key_universe, s=config.zipf_s, read_ratio=config.read_ratio
        )
    return kv_ops(rng, keys=key_universe)


def assemble_sharded(
    config: ShardedScenarioConfig,
    host: Any,
    sim: Optional[Simulator],
    oar_config: OARConfig,
    fd_interval: float,
    fd_timeout: float,
    heartbeat: type,
    scale: float = 1.0,
) -> ShardedRun:
    """Add the servers, then the clients, of ``config`` to ``host``.

    The one sharded construction path, on the simulator and on a wall
    clock alike.  It returns the run with no drivers: the caller starts
    ``host`` and then calls :func:`start_sharded_drivers`.  ``scale``
    multiplies the clients' time-valued knobs (wall-clock seconds per
    scenario unit); ``oar_config`` and the detector timing arrive
    already in the host's time unit.
    """
    if config.machine not in SHARDED_MACHINES:
        raise ValueError(
            f"unknown machine kind: {config.machine} "
            f"(choose from {SHARDED_MACHINES})"
        )
    if config.workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload: {config.workload} (choose from {WORKLOADS})"
        )
    if config.workload == "cross" and config.machine != "bank":
        raise ValueError("the cross-shard workload requires the bank machine")
    if config.workload == "hotkey" and config.machine != "bank":
        raise ValueError("the hot-key workload requires the bank machine")

    key_universe = _key_universe(config)
    router = make_router(config.router, config.n_shards, key_universe)
    # The authoritative epoched routing view: identical to the base
    # router at epoch 0; live rebalancing overlays key moves on it.
    routing_table = RoutingTable(router)
    placement = routing_table.placement(key_universe)

    shard_groups = tuple(
        tuple(f"s{shard}.p{i + 1}" for i in range(config.n_servers))
        for shard in range(config.n_shards)
    )
    detectors: Dict[str, FailureDetector] = {}
    fd_factory = detector_factory(
        detectors, config.fd_kind, fd_interval, fd_timeout, heartbeat
    )

    shards: List[List[OARServer]] = []
    for shard, group in enumerate(shard_groups):
        servers: List[OARServer] = []
        for pid in group:
            machine = make_machine(
                config.machine, placement[shard], config.initial_balance
            )
            server = OARServer(pid, group, machine, fd_factory(group), oar_config)
            servers.append(server)
            host.add_process(server)
        shards.append(servers)

    def scaled(value: Optional[float]) -> Optional[float]:
        return None if value is None else value * scale

    machine_cls = MACHINE_CLASSES[config.machine]
    read_mode = config.read_mode or config.oar.read_mode
    clients: List[ShardedOARClient] = []
    for index in range(config.n_clients):
        # Each client routes by its own (possibly stale) copy of the
        # table and re-syncs from the authority on WrongShard redirects.
        client = ShardedOARClient(
            f"c{index + 1}",
            shard_groups,
            routing_table.copy(),
            key_extractor=machine_cls.keys_of,
            tx_planner=machine_cls.tx_branches,
            retry_interval=scaled(config.retry_interval),
            route_authority=routing_table,
            redirect_delay=scaled(config.redirect_delay),
            max_redirects=config.max_redirects,
            read_mode=read_mode,
            is_read_only=machine_cls.is_read_only,
            load_half_life=scaled(config.load_half_life),
            splitter=(
                machine_cls
                if issubclass(machine_cls, SplittableMachine)
                else None
            ),
        )
        clients.append(client)
        host.add_process(client)

    initial_total = None
    if config.machine == "bank" and config.workload != "hotkey":
        # The hot-key workload's deposits/withdrawals change the money
        # supply, so the conserved-total checks do not apply there --
        # check_fragment_conservation covers its split accounts instead.
        initial_total = config.initial_balance * len(key_universe)

    return ShardedRun(
        config=config,
        sim=sim,  # type: ignore[arg-type]  # None on a wall clock
        network=host,
        router=router,
        routing_table=routing_table,
        shard_groups=shard_groups,
        shards=shards,
        clients=clients,
        drivers=[],
        detectors=detectors,
        key_universe=key_universe,
        initial_placement=placement,
        initial_total=initial_total,
    )


def start_sharded_drivers(
    run: ShardedRun, clock: Any, open_loop: type = OpenLoopDriver
) -> None:
    """Give every client of a started ``run`` its driver on ``clock``."""
    run.drivers = make_drivers(
        run.config,
        clock,
        run.clients,
        lambda rng: _make_ops(
            run.config, rng, run.key_universe, run.initial_placement
        ),
        open_loop,
    )


def build_sharded_scenario(config: ShardedScenarioConfig) -> ShardedRun:
    """Construct (but do not run) the sharded deployment."""
    network = sim_network(config)
    run = assemble_sharded(
        config,
        network,
        network.sim,
        config.server_oar(),
        config.fd_interval,
        config.fd_timeout,
        # Looked up at call time: instrumentation may substitute it.
        HeartbeatFailureDetector,
    )
    network.start_all()
    start_sharded_drivers(run, network.sim)
    return run


def run_sharded_scenario(config: ShardedScenarioConfig) -> ShardedRun:
    """Build and execute a sharded scenario; the one-call entry point."""
    return build_sharded_scenario(config).execute()
