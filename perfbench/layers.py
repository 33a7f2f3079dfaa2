"""The traced run: per-layer metrics for one workload.

Three passes over the same inputs, all in this process:

1. *plain* -- one round exactly as the timed runs do it (tracing off
   where the workload has it off); its wall time is the overhead
   denominator.
2. *profiled* -- the same round under ``cProfile``.  Every Python frame
   whose file lives under ``repro/<layer>/`` is charged to that layer:
   calls count Python functions only, self time also takes the builtins
   a layer's frames call directly.
3. *protocol* -- the round with the protocol trace on and counters
   installed from outside: a send interceptor (messages by payload
   class, R-multicast relays), a failure-detector listener, and timers
   around each checker in ``repro.analysis.checkers``.

Counts and spans stay in memory and are written once, at the end, to
``perfbench/results/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.analysis.checkers as checker_module
import repro.runtime.scenario as runtime_scenario
import repro.sharding.cluster as sharded_cluster
from repro.analysis.stats import percentile
from repro.broadcast.reliable import RMsg
from repro.failure.detector import HeartbeatFailureDetector

import workloads
from workloads import Round, TimedTcpCluster, patched

LAYERS = (
    "sim", "broadcast", "consensus", "failure", "core",
    "statemachine", "sharding", "workload", "analysis", "runtime",
)
#: Payload classes counted one by one; the Chandra-Toueg messages share
#: one bucket and anything else lands in ``other``.
PAYLOAD_CLASSES = (
    "RMsg", "Reply", "SeqOrder", "OrderBatch", "Heartbeat",
    "ReadRequest", "ReadReply",
)
CONSENSUS_CLASSES = frozenset({"CEstimate", "CProposal", "CAck", "CNack", "CDecide"})
#: Every checker ``ShardedRun.check_all`` calls, leaves of the bundle.
CHECKERS = (
    "check_cnsv_order_properties", "check_majority_guarantee",
    "check_at_most_once", "check_at_least_once", "check_total_order",
    "check_replica_convergence", "check_external_consistency",
    "check_read_consistency", "check_cross_shard_atomicity",
    "check_migration_atomicity", "check_fragment_conservation",
    "check_fault_plane_accounting", "check_admission_accounting",
)

#: (name, unit, better) of every per-layer metric; each workload
#: reports all of them (a layer a workload never enters reads 0).
PER_LAYER: List[Tuple[str, str, str]] = [
    row
    for layer in LAYERS
    for row in (
        (f"{layer}.calls_per_op", "count", "lower"),
        (f"{layer}.self_us_per_op", "us", "lower"),
    )
] + [
    ("sim.events_per_op", "count", "lower"),
    ("sim.msgs_per_op", "count", "lower"),
] + [
    (f"sim.msgs_per_op.{name}", "count", "lower")
    for name in PAYLOAD_CLASSES + ("consensus", "other")
] + [
    ("broadcast.relays_per_op", "count", "lower"),
    ("core.history_len", "count", "lower"),
    ("core.order_wait_units.p50", "units", "lower"),
    ("core.order_wait_units.p99", "units", "lower"),
    ("core.order_batch_size", "count", "higher"),
    ("core.opt_cnsv_gap_units.p50", "units", "lower"),
    ("core.opt_cnsv_gap_units.p99", "units", "lower"),
    ("core.undo_per_op", "fraction", "lower"),
    ("core.exec.inverses_per_op", "count", "lower"),
    ("core.client.retransmits_per_op", "count", "lower"),
    ("core.exec.lane_util", "fraction", "lower"),
    ("core.exec.wait_units", "units", "lower"),
    ("consensus.instances", "count", "lower"),
    ("consensus.rounds_per_instance", "count", "lower"),
    ("failure.heartbeats_per_op", "count", "lower"),
    ("failure.false_suspicions", "count", "lower"),
    ("failure.failover_gap_units", "units", "lower"),
    ("sharding.tx_abort_frac", "fraction", "lower"),
    ("sharding.redirects_per_op", "count", "lower"),
] + [
    (f"analysis.{name}_s", "s", "lower") for name in CHECKERS
] + [
    ("analysis.trace_events_per_op", "count", "lower"),
    ("runtime.frames_per_op", "count", "lower"),
    ("runtime.bytes_per_op", "bytes", "lower"),
    ("runtime.flushes_per_op", "count", "lower"),
    ("runtime.frames_per_flush", "count", "higher"),
    ("runtime.encode_us_per_frame", "us", "lower"),
    ("runtime.decode_us_per_frame", "us", "lower"),
    ("runtime.encode_cache_hit_frac", "fraction", "higher"),
    ("workload.lag_p99_ms", "ms", "lower"),
    ("workload.latency_p99_units", "units", "lower"),
    ("workload.latency_samples", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


# ----------------------------------------------------------------------
# Instrumentation installed from outside the program
# ----------------------------------------------------------------------

class Counters:
    """Protocol-pass counts and spans."""

    def __init__(self) -> None:
        self.payloads: Counter = Counter()
        self.relays = 0
        self.recants = 0
        self.checker_s: Dict[str, float] = defaultdict(float)
        self.encode_s = 0.0
        self.encodes = 0
        self.decode_s = 0.0
        self.decodes = 0
        self.spans: List[Dict[str, Any]] = []

    def on_send(self, src: str, dst: str, payload: Any) -> bool:
        """A send interceptor that only counts (never drops)."""
        name = type(payload).__name__
        self.payloads[name] += 1
        if isinstance(payload, RMsg) and payload.origin != src:
            self.relays += 1
        return True

    def on_suspicion(self, pid: str, suspected: bool) -> None:
        # A heartbeat detector recants only when the suspected process
        # speaks again, so every recant is a false suspicion.
        if not suspected:
            self.recants += 1

    def span(self, name: str, start: float, end: float, parent: int) -> int:
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent})
        return len(self.spans) - 1


@contextmanager
def instrumented(counters: Counters, parent: int) -> Iterator[None]:
    """Detector listeners and checker timers for the protocol pass."""

    class ListenedDetector(HeartbeatFailureDetector):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            self.add_listener(counters.on_suspicion)

    def timed(name: str, check: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return check(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                counters.checker_s[name] += ended - started
                counters.span(f"analysis.{name}", started, ended, parent)
        return wrapper

    with ExitStack() as stack:
        for module in (sharded_cluster, runtime_scenario):
            stack.enter_context(
                patched(module, "HeartbeatFailureDetector", ListenedDetector)
            )
        for name in CHECKERS:
            stack.enter_context(
                patched(checker_module, name, timed(name, getattr(checker_module, name)))
            )
        yield


class _TimedCodec:
    """Wraps a cluster codec's frame encode/decode with timers."""

    def __init__(self, codec: Any, counters: Counters) -> None:
        self._codec = codec
        self._counters = counters

    def encode_frame(self, src: str, payload: Any) -> bytes:
        started = time.perf_counter()
        frame = self._codec.encode_frame(src, payload)
        self._counters.encode_s += time.perf_counter() - started
        self._counters.encodes += 1
        return frame

    def decode_frame(self, buf: bytes) -> Tuple[str, Any]:
        started = time.perf_counter()
        decoded = self._codec.decode_frame(buf)
        self._counters.decode_s += time.perf_counter() - started
        self._counters.decodes += 1
        return decoded


def counting_cluster(counters: Counters) -> Callable[[List[float]], Callable[..., Any]]:
    """A tcp-oar cluster factory that counts frames by payload class."""

    class CountingTcpCluster(TimedTcpCluster):
        def __init__(self, setup_times: List[float], **kwargs: Any) -> None:
            super().__init__(setup_times, **kwargs)
            self.codec = _TimedCodec(self.codec, counters)

        def send_frame(self, src: str, dst: str, payload: Any) -> None:
            counters.on_send(src, dst, payload)
            super().send_frame(src, dst, payload)

    return lambda times: (lambda **kw: CountingTcpCluster(times, **kw))


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------

def layer_of(path: str) -> str:
    parts = path.replace(os.sep, "/").split("/repro/")
    if len(parts) < 2:
        return ""
    layer = parts[-1].split("/")[0]
    return layer if layer in LAYERS else ""


def profile_layers(
    fn: Callable[[], Any],
) -> Tuple[Any, float, Dict[str, Dict[str, Any]]]:
    """Run ``fn`` under cProfile; (result, wall seconds, per-layer stats)."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    raw = pstats.Stats(profiler).stats
    layers: Dict[str, Dict[str, Any]] = {
        layer: {"calls": 0, "self_s": 0.0, "top": Counter()} for layer in LAYERS
    }
    for (path, _line, func), (_cc, calls, self_s, _cum, callers) in raw.items():
        layer = layer_of(path)
        if layer:
            layers[layer]["calls"] += calls
            layers[layer]["self_s"] += self_s
            layers[layer]["top"][f"{os.path.basename(path)}:{func}"] += self_s
        elif path == "~":
            # A builtin: charge its time to the layers of its callers.
            for caller, (_c, _n, caller_self, _ct) in callers.items():
                caller_layer = layer_of(caller[0])
                if caller_layer:
                    layers[caller_layer]["self_s"] += caller_self
    for stats in layers.values():
        stats["top"] = stats["top"].most_common(5)
    return result, wall, layers


# ----------------------------------------------------------------------
# Metrics from one protocol pass
# ----------------------------------------------------------------------

def _p(values: List[float], fraction: float) -> float:
    return percentile(values, fraction) if values else 0.0


def _per(count: float, ops: int) -> float:
    return count / ops if ops else 0.0


def protocol_metrics(
    views: List[Any], counters: Counters, ops: int, unit_s: float
) -> Dict[str, float]:
    """Counts from the protocol trace and the protocol objects.

    ``views`` are ShardedRun objects (the sim runs, or the tcp runs'
    views); ``unit_s`` converts trace time to scenario units (1 for the
    simulator, 1000 for tcp-oar whose unit is one millisecond).
    """
    waits: List[float] = []
    batches: List[int] = []
    gaps: List[float] = []
    exec_waits: List[float] = []
    busy = capacity = 0.0
    opt_delivers = undelivers = 0
    instances: Dict[Tuple[int, str, Any], int] = {}
    failover_gaps: List[float] = []
    history = trace_events = 0
    for index, view in enumerate(views):
        trace = view.trace
        trace_events += len(trace)
        submitted: Dict[str, float] = {}
        ops_of: Dict[str, Any] = {}
        for event in trace.events(kind="submit"):
            submitted.setdefault(event["rid"], event.time)
            ops_of[event["rid"]] = event["op"]
        ordered = set()
        for event in trace.events(kind="seq_order"):
            batches.append(len(event["rids"]))
            for rid in event["rids"]:
                if rid in submitted and rid not in ordered:
                    ordered.add(rid)
                    waits.append((event.time - submitted[rid]) * unit_s)
        delivered: Dict[Tuple[str, str], float] = {}
        first_opt: Dict[Tuple[str, str], float] = {}
        engines = {server.pid: server.engine for server in view.servers}
        kinds = ("opt_deliver", "a_deliver", "exec_done", "cnsv_order")
        for event in trace.events_of_kinds(kinds):
            if event.kind == "cnsv_order":
                # Phase 2 settles the surviving optimistic deliveries.
                bad = set(event["bad"])
                for rid in event["o_delivered"]:
                    if rid not in bad and (event.pid, rid) in first_opt:
                        gaps.append((event.time - first_opt[event.pid, rid]) * unit_s)
                continue
            key = (event.pid, event["rid"])
            if event.kind == "exec_done":
                engine = engines[event.pid]
                service = engine.cost * type(engine.machine).exec_cost_of(
                    ops_of.get(event["rid"], ())
                )
                busy += service
                exec_waits.append(
                    (event.time - delivered.get(key, event.time) - service) * unit_s
                )
                continue
            delivered[key] = event.time
            if event.kind == "opt_deliver":
                opt_delivers += 1
                first_opt.setdefault(key, event.time)
            elif key in first_opt:
                gaps.append((event.time - first_opt[key]) * unit_s)
        undelivers += len(trace.events(kind="opt_undeliver"))
        adopt_times = [event.time for event in trace.events(kind="adopt")]
        if adopt_times and submitted:
            span = max(adopt_times) - min(submitted.values())
            capacity += span * sum(
                engine.lanes for engine in engines.values() if engine.cost > 0
            )
        for event in trace.events(kind="consensus_decide"):
            key = (index, event.pid.split(".")[0], event["instance"])
            instances[key] = max(instances.get(key, 0), event["rounds"])
        crashes = [e.time for e in trace.events(kind="crash") if e.pid.startswith("s0.")]
        if crashes:
            crash = min(crashes)
            routed = set(view.routed_to(0))
            after = {rid for rid, t in submitted.items() if t >= crash and rid in routed}
            adopted_after = [
                e.time for e in trace.events(kind="adopt") if e["rid"] in after
            ]
            if adopted_after:
                failover_gaps.append((min(adopted_after) - crash) * unit_s)
        for servers in view.shards:
            for server in servers:
                if not server.crashed and server.is_sequencer:
                    history = max(history, len(server.r_delivered))

    clients = [client for view in views for client in view.clients]
    servers = [server for view in views for server in view.servers]
    started = sum(client.cross_shard_started for client in clients)
    return {
        "broadcast.relays_per_op": _per(counters.relays, ops),
        "core.history_len": float(history),
        "core.order_wait_units.p50": _p(waits, 0.5),
        "core.order_wait_units.p99": _p(waits, 0.99),
        "core.order_batch_size": statistics.fmean(batches) if batches else 0.0,
        "core.opt_cnsv_gap_units.p50": _p(gaps, 0.5),
        "core.opt_cnsv_gap_units.p99": _p(gaps, 0.99),
        "core.undo_per_op": _per(undelivers, opt_delivers),
        "core.exec.inverses_per_op": _per(
            sum(server.engine.inverses_executed for server in servers), ops
        ),
        "core.client.retransmits_per_op": _per(
            sum(c.retransmissions + c.read_retransmissions for c in clients), ops
        ),
        "core.exec.lane_util": busy / capacity if capacity else 0.0,
        "core.exec.wait_units": statistics.fmean(exec_waits) if exec_waits else 0.0,
        "consensus.instances": float(len(instances)),
        "consensus.rounds_per_instance": (
            statistics.fmean(instances.values()) if instances else 0.0
        ),
        "failure.heartbeats_per_op": _per(counters.payloads["Heartbeat"], ops),
        "failure.false_suspicions": float(counters.recants),
        "failure.failover_gap_units": (
            statistics.median(failover_gaps) if failover_gaps else 0.0
        ),
        "sharding.tx_abort_frac": _per(
            sum(client.cross_shard_aborted for client in clients), started
        ),
        "sharding.redirects_per_op": _per(
            sum(client.redirects for client in clients), ops
        ),
        "analysis.trace_events_per_op": _per(trace_events, ops),
        **{
            f"analysis.{name}_s": counters.checker_s.get(name, 0.0)
            for name in CHECKERS
        },
    }


def sim_message_metrics(runs: List[Any], counters: Counters, ops: int) -> Dict[str, float]:
    counted = set(PAYLOAD_CLASSES) | CONSENSUS_CLASSES
    other = sum(n for name, n in counters.payloads.items() if name not in counted)
    return {
        "sim.events_per_op": _per(sum(run.sim.events_processed for run in runs), ops),
        "sim.msgs_per_op": _per(sum(run.network.stats()["sent"] for run in runs), ops),
        **{
            f"sim.msgs_per_op.{name}": _per(counters.payloads[name], ops)
            for name in PAYLOAD_CLASSES
        },
        "sim.msgs_per_op.consensus": _per(
            sum(counters.payloads[name] for name in CONSENSUS_CLASSES), ops
        ),
        "sim.msgs_per_op.other": _per(other, ops),
    }


def runtime_metrics(runs: List[Any], counters: Counters, ops: int) -> Dict[str, float]:
    totals: Counter = Counter()
    for run in runs:
        totals.update(run.transport_stats())
    frames = totals["frames_sent"]
    return {
        "runtime.frames_per_op": _per(frames, ops),
        "runtime.bytes_per_op": _per(totals["bytes_sent"], ops),
        "runtime.flushes_per_op": _per(totals["flushes"], ops),
        "runtime.frames_per_flush": _per(frames, totals["flushes"]),
        "runtime.encode_us_per_frame": _per(counters.encode_s * 1e6, counters.encodes),
        "runtime.decode_us_per_frame": _per(counters.decode_s * 1e6, counters.decodes),
        "runtime.encode_cache_hit_frac": _per(totals["encode_cache_hits"], frames),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def _round(workload: str, seed: int, **kwargs: Any) -> Tuple[Round, List[Any]]:
    """One round with single builds and checks, and the runs it made."""
    if workload not in workloads.SIM_WORKLOADS:
        return workloads.tcp_round(seed, repeats=False, **kwargs)
    runs: List[Any] = []
    on_run = kwargs.pop("on_run", lambda run: None)

    def keep(run: Any) -> None:
        on_run(run)
        runs.append(run)

    spec = workloads.SIM_WORKLOADS[workload]
    return workloads.sim_round(spec, seed, on_run=keep, repeats=False, **kwargs), runs


def traced_metrics(workload: str, seed: int) -> Tuple[int, int, Dict[str, float]]:
    """(attempted, failed, per-layer metrics) of one traced run."""
    counters = Counters()
    epoch = time.perf_counter()

    started = time.perf_counter()
    plain, plain_runs = _round(workload, seed)
    plain_wall = time.perf_counter() - started
    counters.span("pass.plain", started, started + plain_wall, -1)

    started = time.perf_counter()
    (profiled, _), profiled_wall, layers = profile_layers(
        lambda: _round(workload, seed)
    )
    counters.span("pass.profiled", started, started + profiled_wall, -1)
    ops = profiled.submitted - profiled.failed

    parent = counters.span("pass.protocol", time.perf_counter(), 0.0, -1)
    with instrumented(counters, parent):
        if workload in workloads.SIM_WORKLOADS:
            proto, proto_runs = _round(
                workload, seed, trace_level="full",
                on_run=lambda run: run.network.add_interceptor(counters.on_send),
            )
            views, unit_s = proto_runs, 1.0
        else:
            proto, proto_runs = _round(
                workload, seed, trace_level="full",
                cluster_factory=counting_cluster(counters),
            )
            views, unit_s = [run.view for run in proto_runs], 1000.0
    counters.spans[parent]["end"] = time.perf_counter()
    for name, start, end in proto.phases:
        counters.span(name, start, end, parent)
    for span in counters.spans:
        span["start"] -= epoch
        span["end"] -= epoch

    metrics: Dict[str, float] = {}
    for layer, stats in layers.items():
        metrics[f"{layer}.calls_per_op"] = _per(stats["calls"], ops)
        metrics[f"{layer}.self_us_per_op"] = _per(stats["self_s"] * 1e6, ops)
    metrics.update(protocol_metrics(views, counters, ops, unit_s))
    if workload in workloads.SIM_WORKLOADS:
        metrics.update(sim_message_metrics(proto_runs, counters, ops))
        metrics.update(runtime_metrics([], counters, ops))
        metrics["workload.lag_p99_ms"] = 0.0
    else:
        metrics.update(sim_message_metrics([], Counters(), ops))
        metrics.update(runtime_metrics(plain_runs, counters, ops))
        _, lags = workloads.due_time_delays(plain_runs[0])
        metrics["workload.lag_p99_ms"] = _p(lags, 0.99)
    metrics["workload.latency_p99_units"] = _p(plain.latencies, 0.99)
    metrics["workload.latency_samples"] = float(len(plain.latencies))
    metrics["trace.overhead_ratio"] = profiled_wall / plain_wall

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{workload}-seed{seed}.json"), "w") as out:
        json.dump(
            {"workload": workload, "seed": seed, "ops": ops, "spans": counters.spans,
             "layers": layers, "payloads": dict(counters.payloads), "metrics": metrics},
            out, indent=1, sort_keys=True,
        )
    attempted = plain.submitted + profiled.submitted + proto.submitted
    failed = plain.failed + profiled.failed + proto.failed
    return attempted, failed, metrics
