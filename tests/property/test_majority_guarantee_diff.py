"""Differential test: the near-linear majority-guarantee checker against
the all-pairs algorithm it replaced.

The reference below is that quadratic algorithm with one correction: it
checks both orientations of every rid pair (the original only counted
"m1 before m2" for m1 < m2 in sorted order, so a majority ordering the
lexicographically larger rid first was never checked).  Both must give
the same verdict -- pass with the same pair count, or fail the same way
-- on generated traces, on traces recorded from real crash scenarios and
figure runs, and on every trace built by the planted-violation tests in
``tests/unit/test_checkers.py``.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.checkers import (
    CheckFailure,
    check_majority_guarantee,
    reconstruct_delivered,
    subtrace,
)
from repro.faults import FaultSchedule
from repro.harness import figures
from repro.sharding.cluster import ShardedScenarioConfig, run_sharded_scenario
from repro.sim.latency import UniformLatency
from repro.sim.trace import TraceLog

pytestmark = pytest.mark.property


def reference_majority_guarantee(trace, group_size):
    """All pairs, both orientations, ``list.index`` on every order."""
    majority = group_size // 2 + 1
    pids = {event.pid for event in trace.events(kind="opt_deliver")}
    pids |= {event.pid for event in trace.events(kind="a_deliver")}
    final_orders = {pid: reconstruct_delivered(trace, pid) for pid in pids}

    epochs = sorted({event["epoch"] for event in trace.events(kind="opt_deliver")})
    examined = 0
    for epoch in epochs:
        per_pid = {}
        for event in trace.events(kind="opt_deliver"):
            if event["epoch"] == epoch:
                per_pid.setdefault(event.pid, []).append(event["rid"])
        opt_orders = list(per_pid.values())
        rids = sorted({rid for order in opt_orders for rid in order})
        for i, m1 in enumerate(rids):
            for m2 in rids[i + 1:]:
                examined += 1
                for first, second in ((m1, m2), (m2, m1)):
                    before = sum(
                        1
                        for order in opt_orders
                        if first in order and second in order
                        and order.index(first) < order.index(second)
                    )
                    if before < majority:
                        continue
                    for pid, order in final_orders.items():
                        if first in order and second in order:
                            if order.index(second) < order.index(first):
                                raise CheckFailure(
                                    f"majority guarantee violated: majority "
                                    f"Opt-delivered {first} before {second} in "
                                    f"epoch {epoch}, but {pid} delivered "
                                    f"{second} first"
                                )
    return examined


def verdict(check, trace, group_size):
    """``("ok", pairs)`` or ``("fail", is_majority_violation)``."""
    try:
        return ("ok", check(trace, group_size))
    except CheckFailure as failure:
        return ("fail", "majority guarantee" in str(failure))


def assert_same_verdict(trace, group_size):
    expected = verdict(reference_majority_guarantee, trace, group_size)
    assert verdict(check_majority_guarantee, trace, group_size) == expected
    return expected


# ----------------------------------------------------------------------
# Generated traces
# ----------------------------------------------------------------------

@st.composite
def delivery_traces(draw):
    """(trace, group_size) shaped like OAR epochs, with deviations.

    Per epoch, each server Opt-delivers a prefix of one sequencer order
    with a few rids missing (rarely a shuffled order instead), undoes a
    suffix, may Opt-deliver some undone rids again, then A-delivers an
    arbitrary ordering of rids it does not hold.  Undone rids return in
    later epochs' sequencer orders.  Occasionally the trace ends with an
    undo of a rid never delivered, which both checkers must reject.
    """
    group_size = draw(st.integers(3, 5))
    pids = [f"p{i}" for i in range(1, group_size + 1)]
    log = TraceLog()
    clock = itertools.count()
    delivered = {pid: [] for pid in pids}

    def record(pid, kind, rid, epoch):
        if kind == "opt_undeliver":
            if delivered[pid] and delivered[pid][-1] == rid:
                delivered[pid].pop()
        else:
            delivered[pid].append(rid)
        log.record(
            float(next(clock)), pid, kind,
            rid=rid, epoch=epoch, position=len(delivered[pid]), value=None,
        )

    fresh_ids = itertools.count()
    undone = []
    for epoch in range(draw(st.integers(1, 3))):
        fresh = [f"m{next(fresh_ids)}" for _ in range(draw(st.integers(1, 6)))]
        ground = draw(st.permutations(fresh + sorted(set(undone))))
        undone = []
        for pid in pids:
            missing = draw(st.sets(st.sampled_from(ground), max_size=2))
            prefix = ground[:draw(st.integers(0, len(ground)))]
            opt = [rid for rid in prefix if rid not in missing]
            if draw(st.sampled_from(range(5))) == 0:
                opt = draw(st.permutations(opt))
            for rid in opt:
                record(pid, "opt_deliver", rid, epoch)
            bad = opt[len(opt) - draw(st.integers(0, len(opt))):]
            for rid in reversed(bad):
                record(pid, "opt_undeliver", rid, epoch)
            undone.extend(bad)
            for rid in bad[:draw(st.integers(0, len(bad)))]:
                record(pid, "opt_deliver", rid, epoch)
            pool = [rid for rid in ground if rid not in delivered[pid]]
            new = draw(st.permutations(pool))
            for rid in new[:draw(st.integers(0, len(new)))]:
                record(pid, "a_deliver", rid, epoch)
    if draw(st.sampled_from(range(10))) == 0:
        record(pids[0], "opt_undeliver", "ghost", epoch)
    return log, group_size


def test_same_verdict_on_generated_traces():
    seen = set()

    @given(delivery_traces())
    @settings(max_examples=300, deadline=None)
    def same_verdict(case):
        outcome = assert_same_verdict(*case)
        seen.add(outcome if outcome[0] == "fail" else "ok")

    same_verdict()
    # The generator reaches passes, majority violations and malformed
    # undos alike.
    assert seen == {"ok", ("fail", True), ("fail", False)}


# ----------------------------------------------------------------------
# Recorded traces
# ----------------------------------------------------------------------

def failover_run(seed):
    """2 groups x 3 replicas, bank with 30% cross-shard transfers; shard
    0's first sequencer crashes at t=50 under a heartbeat detector."""
    return run_sharded_scenario(ShardedScenarioConfig(
        n_shards=2,
        n_servers=3,
        n_clients=4,
        requests_per_client=40,
        machine="bank",
        workload="cross",
        cross_ratio=0.3,
        driver="open",
        open_rate=0.5,
        latency=UniformLatency(0.5, 1.5),
        fd_interval=2.0,
        fd_timeout=8.0,
        fault_schedule=FaultSchedule().crash(50.0, "s0.p1"),
        seed=seed,
    ))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_same_verdict_on_failover_traces(seed):
    run = failover_run(seed)
    epochs = set()
    for servers in run.shards:
        view = subtrace(run.trace, [s.pid for s in servers] + run.client_pids)
        assert assert_same_verdict(view, len(servers))[0] == "ok"
        epochs |= {event["epoch"] for event in view.events(kind="opt_deliver")}
    assert len(epochs) > 1, "the crash should force at least one phase 2"


def test_same_verdict_on_failover_trace_with_planted_inversion():
    """A real trace plus one extra server that A-delivers, in the
    opposite order, two rids every shard-0 replica Opt-delivered."""
    run = failover_run(0)
    servers = run.shards[0]
    view = subtrace(run.trace, [s.pid for s in servers])
    orders = [
        [e["rid"] for e in view.events(kind="opt_deliver", pid=s.pid)
         if e["epoch"] == 0]
        for s in servers
    ]
    first, second = orders[0][:2]
    assert all(order[:2] == [first, second] for order in orders)
    view.record(1e9, "rogue", "a_deliver", rid=second, epoch=0, position=1, value=None)
    view.record(1e9, "rogue", "a_deliver", rid=first, epoch=0, position=2, value=None)
    assert assert_same_verdict(view, len(servers)) == ("fail", True)


@pytest.mark.parametrize("scenario", [
    figures.run_figure_1a,
    figures.run_figure_1b,
    figures.run_figure_1b_with_oar,
    figures.run_figure_2,
    figures.run_figure_3,
    figures.run_figure_4,
])
def test_same_verdict_on_figure_traces(scenario):
    run = scenario()
    assert_same_verdict(run.trace, len(run.servers))


# ----------------------------------------------------------------------
# Planted-violation traces
# ----------------------------------------------------------------------

def planted_traces():
    """Every TraceLog the checker unit tests build, after they ran."""
    path = Path(__file__).resolve().parents[1] / "unit" / "test_checkers.py"
    spec = importlib.util.spec_from_file_location("planted_checker_tests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    logs = []

    class RecordingTraceLog(TraceLog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            logs.append(self)

    module.TraceLog = RecordingTraceLog
    for name, cls in vars(module).items():
        if name.startswith("Test") and isinstance(cls, type):
            for attr in dir(cls):
                if attr.startswith("test_"):
                    getattr(cls(), attr)()
    return logs


def test_same_verdict_on_planted_violation_traces():
    logs = planted_traces()
    verdicts = [assert_same_verdict(log, 3) for log in logs]
    # Both orientations of the planted majority inversion fire.
    assert verdicts.count(("fail", True)) >= 2
