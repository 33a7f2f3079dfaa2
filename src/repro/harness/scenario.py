"""Declarative scenario construction and execution.

A :class:`ScenarioConfig` describes a complete deployment: protocol,
group size, state machine, latency model, failure detector, workload and
fault schedule.  :func:`run_scenario` builds it on a fresh deterministic
simulator, runs it to quiescence (all submitted requests adopted) plus a
grace period, and returns a :class:`ScenarioRun` with everything the
checkers, benchmarks and examples need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import checkers
from repro.broadcast.ct_abcast import CTAtomicBroadcastServer
from repro.broadcast.sequencer import SequencerAtomicBroadcastServer
from repro.core.client import OARClient
from repro.core.server import OARServer
from repro.failure.detector import FailureDetector
from repro.harness.deployment import (
    MACHINE_CLASSES,
    DeploymentConfig,
    DeploymentRun,
    detector_factory,
    make_drivers,
    make_machine,
    sim_network,
)
from repro.replication.active import FirstReplyClient
from repro.replication.passive import PassiveReplicationServer
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.statemachine import StateMachine
from repro.workload.generators import (
    bank_ops,
    counter_ops,
    kv_ops,
    read_heavy_kv_ops,
    stack_ops,
)

PROTOCOLS = ("oar", "sequencer", "ct", "passive")
MACHINES = tuple(MACHINE_CLASSES)


@dataclass
class ScenarioConfig(DeploymentConfig):
    """Everything needed to reproduce one experiment run.

    The shared fields (sizes, machine, latency, failure detector, ``oar``
    knobs, drivers, faults, budgets, trace) are documented on
    :class:`~repro.harness.deployment.DeploymentConfig`.
    """

    #: "oar", or one of the baselines: "sequencer", "ct", "passive"
    #: (the ``oar`` knobs are ignored by the baselines).
    protocol: str = "oar"

    #: When set (kv machine only), the workload becomes the Zipf-skewed
    #: read-heavy mix of ``read_heavy_kv_ops`` with this read fraction
    #: over ``n_keys`` keys -- the B12 read-scaling workload.
    read_ratio: Optional[float] = None
    n_keys: int = 16


@dataclass
class ScenarioRun(DeploymentRun):
    """A built (and, after ``execute``, completed) scenario."""

    config: ScenarioConfig
    sim: Simulator
    network: SimNetwork
    servers: List[Any]
    clients: List[Any]
    drivers: List[Any]
    detectors: Dict[str, FailureDetector]

    @property
    def server_pids(self) -> List[str]:
        return [server.pid for server in self.servers]

    # ------------------------------------------------------------------
    # Checker bundle
    # ------------------------------------------------------------------

    def check_all(self, strict: bool = True, at_least_once: bool = True) -> None:
        """Assert every applicable paper property over this run's trace."""
        trace = self.trace
        if self.config.protocol == "oar":
            checkers.check_cnsv_order_properties(trace, len(self.servers))
            checkers.check_majority_guarantee(trace, len(self.servers))
            checkers.check_at_most_once(trace, self.servers)
            checkers.check_total_order(self.servers)
            checkers.check_replica_convergence(self.servers)
            checkers.check_external_consistency(trace, strict=strict)
            if at_least_once and self.all_done():
                # Replica-local reads are never delivered by servers --
                # they are answered, not ordered -- so they are not
                # subject to the delivery-based at-least-once property.
                # Shed requests likewise: refused deterministically,
                # deliberately never ordered.
                excluded = set()
                for client in self.clients:
                    excluded |= getattr(client, "read_rids", set())
                    excluded |= getattr(client, "shed_rids", set())
                ordered = [
                    rid for rid in self.submitted_rids() if rid not in excluded
                ]
                checkers.check_at_least_once(
                    trace, self.correct_servers, ordered
                )
            checkers.check_read_consistency(
                trace,
                self.servers,
                lambda: make_machine(self.config.machine),
            )
            checkers.check_fault_plane_accounting(trace, self.network)
            checkers.check_admission_accounting(
                trace, self.servers, self.clients, self.drivers
            )
        else:
            checkers.check_replica_convergence(self.servers)
            checkers.check_fault_plane_accounting(trace, self.network)


def _make_ops(config: ScenarioConfig, rng: random.Random) -> Iterator[Tuple[Any, ...]]:
    kind = config.machine
    if kind == "counter":
        return counter_ops()
    if kind == "stack":
        return stack_ops(rng)
    if kind == "kv":
        if config.read_ratio is not None:
            keys = tuple(f"k{i:03d}" for i in range(config.n_keys))
            return read_heavy_kv_ops(
                rng, keys, s=config.zipf_s, read_ratio=config.read_ratio
            )
        return kv_ops(rng)
    if kind == "bank":
        return bank_ops(rng)
    raise ValueError(f"unknown machine kind: {kind}")


def populate_group(
    config: ScenarioConfig,
    network: SimNetwork,
    machine_factory: Optional[Callable[[], StateMachine]] = None,
) -> Tuple[List[Any], List[Any], Dict[str, FailureDetector]]:
    """Add the group's servers, then its clients, to ``network``.

    Returns (servers, clients, detectors by pid).  ``machine_factory``
    builds each replica's state machine (default: a fresh
    ``config.machine``).
    """
    if config.protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol: {config.protocol} (choose from {PROTOCOLS})"
        )
    oar_config = config.server_oar()
    group = [f"p{i + 1}" for i in range(config.n_servers)]
    detectors: Dict[str, FailureDetector] = {}
    fd_factory = detector_factory(
        detectors, config.fd_kind, config.fd_interval, config.fd_timeout
    )(group)

    servers: List[Any] = []
    for pid in group:
        if machine_factory is None:
            machine = make_machine(config.machine)
        else:
            machine = machine_factory()
        if config.protocol == "oar":
            server: Any = OARServer(pid, group, machine, fd_factory, oar_config)
        elif config.protocol == "sequencer":
            server = SequencerAtomicBroadcastServer(pid, group, machine, fd_factory)
        elif config.protocol == "ct":
            server = CTAtomicBroadcastServer(pid, group, machine, fd_factory)
        else:
            server = PassiveReplicationServer(pid, group, machine, fd_factory)
        servers.append(server)
        network.add_process(server)

    read_mode = config.read_mode or config.oar.read_mode
    clients: List[Any] = []
    for index in range(config.n_clients):
        cid = f"c{index + 1}"
        if config.protocol == "oar":
            client: Any = OARClient(
                cid,
                group,
                retry_interval=config.retry_interval,
                read_mode=read_mode,
                is_read_only=MACHINE_CLASSES[config.machine].is_read_only,
            )
        else:
            reliable = config.protocol == "ct"
            client = FirstReplyClient(cid, group, reliable=reliable)
        clients.append(client)
        network.add_process(client)
    return servers, clients, detectors


def build_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Construct (but do not run) the deployment described by ``config``."""
    network = sim_network(config)
    servers, clients, detectors = populate_group(config, network)
    network.start_all()
    drivers = make_drivers(
        config, network.sim, clients, lambda rng: _make_ops(config, rng)
    )
    return ScenarioRun(
        config=config,
        sim=network.sim,
        network=network,
        servers=servers,
        clients=clients,
        drivers=drivers,
        detectors=detectors,
    )


def run_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Build and execute a scenario; the usual one-call entry point."""
    return build_scenario(config).execute()
