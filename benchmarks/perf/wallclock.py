"""Wall-clock benchmarks: the real asyncio/TCP backend, measured in ops/sec.

Everything else in the perf suite runs on the simulator's virtual
clock; these cells are the throughput story over real sockets -- the
ROADMAP's "as fast as the hardware allows" claim, measured.  Two kinds
of numbers live here:

* **Micros** -- ``codec_roundtrips_per_sec`` (frames through
  encode+decode of a representative protocol mix) and
  ``tcp_pingpong_msgs_per_sec`` (loopback round trips through
  :class:`~repro.runtime.tcp.TcpCluster`), each with a ``binary`` and a
  ``pickle`` cell.
* **End-to-end cells** -- adopted operations per second for the
  failure-free OAR shape, the 2-shard B10 shape, and the read-heavy
  B12 shape, over TCP with tracing off.  The OAR shape is measured
  twice: the optimized transport (binary codec, write coalescing,
  sequencer order batching, direct-dispatch receive) and the pre-PR
  shape (pickle codec, ``flush_bytes=1`` so every frame is its own
  ``writer.write``, no batching, inbox-queue + pump-task receive) --
  their ratio is the end-to-end win the CI gate holds.

Absolute wall-clock rates are machine-dependent; the committed numbers
carry machine provenance in ``BENCH_perf.json`` and the gates compare
*same-run ratios* (binary vs pickle) or kernel-normalized work, never
raw rates across machines (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

import asyncio
import struct
import time
from typing import Any, Dict, List

from repro.broadcast.reliable import RMsg
from repro.core.messages import Reply, Request, SeqOrder
from repro.failure.detector import Heartbeat
from repro.runtime.codec import make_codec
from repro.runtime.scenario import (
    RuntimeScenarioConfig,
    run_runtime_scenario,
)
from repro.runtime.tcp import TcpCluster
from repro.sharding.cluster import ShardedScenarioConfig
from repro.sim.process import Process
from repro.statemachine.base import OpResult

GROUP = ("p1", "p2", "p3")

_RMSG = RMsg(
    "p1:17",
    "c1",
    Request("c1:17", "c1", ("set", "k042", 1234)),
    GROUP,
)
_REPLY = Reply(
    "c1:17",
    OpResult(True, 1234),
    17,
    frozenset(GROUP),
    0,
    conservative=False,
    slot=17,
)

#: The codec micro's message mix, weighted by what one failure-free OAR
#: round actually puts on the wire with a 3-replica group: the
#: R-multicast request frame fans out to each replica, each replica
#: answers with its own reply frame, the sequencer emits one ordering
#: message, and the failure detectors tick heartbeats throughout.
PROTOCOL_MIX: List[Any] = [
    _RMSG,
    _RMSG,
    _RMSG,
    _REPLY,
    _REPLY,
    _REPLY,
    SeqOrder(0, ("c1:15", "c2:16", "c1:17"), start=15),
    Heartbeat(17),
    Heartbeat(18),
]


def _codec_trial(codec: Any, n: int) -> float:
    """One timed pass of ``n`` x mix frames; returns frames/sec."""
    encode, decode = codec.encode_frame, codec.decode_frame
    mix = PROTOCOL_MIX
    start = time.perf_counter()
    for _ in range(n):
        for message in mix:
            decode(encode("p1", message))
    return n * len(mix) / (time.perf_counter() - start)


def _codec_check(codec: Any) -> None:
    """The codec must be lossless on the mix (repr fidelity is what the
    trace digests hang off)."""
    for message in PROTOCOL_MIX:
        src, out = codec.decode_frame(codec.encode_frame("p1", message))
        assert src == "p1" and repr(out) == repr(message)


def codec_roundtrips_per_sec(codec_name: str, n: int) -> float:
    """Frames/sec through ``encode_frame`` + ``decode_frame`` of the mix."""
    codec = make_codec(codec_name)
    _codec_check(codec)
    return max(_codec_trial(codec, n) for _ in range(3))


def codec_rates(n: int) -> Dict[str, float]:
    """Both codec cells, measured as *interleaved* paired trials.

    Timing binary in one block and pickle in another lets CPU-state
    drift (frequency scaling, cache warmth) between the blocks move the
    reported ratio by tens of percent; alternating the trials gives both
    codecs the same conditions, so the binary/pickle ratio the perf gate
    holds is stable across runs."""
    codecs = {name: make_codec(name) for name in ("binary", "pickle")}
    for codec in codecs.values():
        _codec_check(codec)
        _codec_trial(codec, max(1, n // 10))  # warmup
    rates = {name: 0.0 for name in codecs}
    for _ in range(5):
        for name, codec in codecs.items():
            rates[name] = max(rates[name], _codec_trial(codec, n))
    return rates


#: Balls in flight for the TCP ping-pong: a window deep enough that the
#: transport pipeline (encode, coalesce, syscall, decode) is measured
#: rather than a single ball's loopback round-trip latency.
PINGPONG_WINDOW = 32


class _TcpPinger(Process):
    """Bounces a window of messages over real sockets until spent."""

    def __init__(self, pid: str, peer: str, budget: int) -> None:
        super().__init__(pid)
        self.peer = peer
        self.budget = budget  # remaining sends this side may make
        self.received = 0

    def on_start(self) -> None:
        if self.pid == "a":
            window = min(PINGPONG_WINDOW, self.budget)
            self.budget -= window
            for i in range(window):
                # The ball is a registered wire message, not a bare
                # tuple: the cell measures the transport pipeline on
                # the frames real runs put through it.
                self.env.send(
                    self.peer, Request(f"c1:{i}", "c1", ("set", "k042", i))
                )

    def on_message(self, src: str, payload: Any) -> None:
        self.received += 1
        if self.budget > 0:
            self.budget -= 1
            self.env.send(src, payload)


def tcp_pingpong_msgs_per_sec(codec_name: str, n: int) -> float:
    """Messages/sec for a windowed two-process ping-pong over TCP."""

    async def scenario() -> float:
        cluster = TcpCluster(codec=codec_name, trace_level="off")
        a = _TcpPinger("a", "b", n)
        b = _TcpPinger("b", "a", n)
        cluster.add_process(a)
        cluster.add_process(b)
        await cluster.start()
        start = time.perf_counter()
        done = await cluster.run_until(
            lambda: a.received + b.received >= 2 * n,
            timeout=60.0,
            poll=0.001,
        )
        elapsed = time.perf_counter() - start
        total = a.received + b.received
        await cluster.shutdown()
        assert done, "ping-pong did not finish"
        return total / elapsed

    # Best of three scenarios: a single run's rate swings with loop
    # scheduling jitter; three fresh clusters give a stable ceiling.
    return max(asyncio.run(scenario()) for _ in range(3))


# ----------------------------------------------------------------------
# End-to-end cells (ops/sec over TCP, tracing off)
# ----------------------------------------------------------------------

_FRAME_HEADER = struct.Struct(">I")


class SeedTcpCluster(TcpCluster):
    """The pre-PR transport, reconstructed verbatim for the baseline cell.

    The optimized :class:`TcpCluster` can emulate the seed's *frame
    shape* (``flush_bytes=1``) but not its *mechanics*, which are what
    the optimized transport removed: one :func:`asyncio.ensure_future`
    task per send (encoding every frame, no fan-out cache), a
    per-channel :class:`asyncio.Lock` held across the write, ``await
    writer.drain()`` after every frame, and a receive loop of two
    ``readexactly`` awaits per frame feeding an inbox queue per process
    that a pump task drains one frame at a time.  This subclass
    restores exactly that send/receive code (from the seed tree) so the
    committed ``oar_binary_vs_pre_pr`` ratio compares against the
    transport that actually existed, not a flattering approximation of
    it.
    """

    def __init__(
        self,
        seed: int = 0,
        codec: Any = "pickle",
        trace_level: str = "off",
        **_ignored: Any,
    ) -> None:
        super().__init__(
            seed=seed,
            codec=codec,
            trace_level=trace_level,
            flush_bytes=1,
        )
        self._inboxes: Dict[str, asyncio.Queue] = {}
        self._writers: Dict[Any, asyncio.StreamWriter] = {}
        self._writer_locks: Dict[Any, asyncio.Lock] = {}
        self._closing = False

    async def start(self) -> None:
        # Inboxes and pumps exist before any process starts sending.
        for pid in self._processes:
            inbox: asyncio.Queue = asyncio.Queue()
            self._inboxes[pid] = inbox
            self._track(asyncio.ensure_future(self._pump(pid, inbox)))
        await super().start()

    async def _pump(self, pid: str, inbox: asyncio.Queue) -> None:
        """Seed receive shape: drain an inbox queue one frame at a time."""
        process = self._processes[pid]
        while True:
            src, payload = await inbox.get()
            if pid not in self._crashed:
                process.on_message(src, payload)

    def send_frame(self, src: str, dst: str, payload: Any) -> None:
        # The closing guard keeps late dispatches (a pump draining its
        # inbox while shutdown cancels it) from spawning send tasks
        # that nothing will ever cancel or await.
        if self._closing or src in self._crashed or dst not in self._addresses:
            return
        self._stats["frames_sent"] += 1
        self._track(asyncio.ensure_future(self._send_frame(src, dst, payload)))

    async def _send_frame(self, src: str, dst: str, payload: Any) -> None:
        key = (src, dst)
        lock = self._writer_locks.setdefault(key, asyncio.Lock())
        # The lock both serializes the lazy connect and keeps frames
        # from interleaving on the stream (FIFO per channel).
        async with lock:
            writer = self._writers.get(key)
            if writer is None or writer.is_closing():
                if dst in self._crashed:
                    return
                host, port = self._addresses[dst]
                try:
                    _reader, writer = await asyncio.open_connection(host, port)
                except OSError:
                    return  # destination crashed between check and connect
                self._writers[key] = writer
            body = self.codec.encode_frame(src, payload)
            writer.write(_FRAME_HEADER.pack(len(body)) + body)
            self._stats["flushes"] += 1
            self._stats["bytes_sent"] += _FRAME_HEADER.size + len(body)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                self._writers.pop(key, None)

    def _make_connection_handler(self, pid: str):
        async def handle(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            try:
                while True:
                    header = await reader.readexactly(_FRAME_HEADER.size)
                    (length,) = _FRAME_HEADER.unpack(header)
                    body = await reader.readexactly(length)
                    src, payload = self.codec.decode_frame(body)
                    self._stats["frames_received"] += 1
                    self._inboxes[pid].put_nowait((src, payload))
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                asyncio.CancelledError,
            ):
                pass
            finally:
                writer.close()

        return handle

    async def shutdown(self) -> None:
        self._closing = True
        await super().shutdown()
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()


def _ops_per_sec(config: RuntimeScenarioConfig) -> float:
    run = run_runtime_scenario(config)
    assert run.completed, "wall-clock scenario did not reach quiescence"
    return run.ops_per_sec()


def _oar_scenario(requests_per_client: int) -> ShardedScenarioConfig:
    """Failure-free OAR under saturation: one group, 3 replicas, 4
    open-loop clients offering load far above capacity, so the measured
    ops/sec is the pipeline's throughput ceiling (codec + transport +
    protocol CPU), not a closed loop's round-trip latency."""
    return ShardedScenarioConfig(
        seed=0,
        n_shards=1,
        n_servers=3,
        n_clients=4,
        requests_per_client=requests_per_client,
        machine="kv",
        workload="uniform",
        n_keys=64,
        driver="open",
        open_rate=500.0,  # x time_scale 0.04 = 12,500/s offered per client
        trace_level="off",
    )


def tcp_oar_ops_per_sec(requests_per_client: int) -> float:
    """The optimized transport: binary codec + coalescing (with a 2 ms
    timed flush window -- the throughput cells accept the latency
    trade) + sequencer order batching + direct-dispatch receive."""
    return _ops_per_sec(
        RuntimeScenarioConfig(
            scenario=_oar_scenario(requests_per_client),
            backend="tcp",
            codec="binary",
            tcp_flush_interval=0.002,
        )
    )


def tcp_oar_ops_per_sec_baseline(requests_per_client: int) -> float:
    """The pre-PR transport: the same scenario hosted on
    :class:`SeedTcpCluster` -- pickle per frame, a task + lock +
    write + drain per send, readexactly + inbox-pump receive, no order
    batching.  See the class docstring; this is the denominator of the
    ``oar_binary_vs_pre_pr`` ratio the CI gate holds."""
    return _ops_per_sec(
        RuntimeScenarioConfig(
            scenario=_oar_scenario(requests_per_client),
            backend="tcp",
            codec="pickle",
            tcp_batch_interval=None,
            tcp_cluster_factory=SeedTcpCluster,
        )
    )


def oar_rates(requests_per_client: int, pairs: int = 3) -> Dict[str, float]:
    """Both OAR cells, measured as *interleaved* pairs (best of each).

    The same reasoning as :func:`codec_rates`: the host's effective CPU
    speed drifts by tens of percent across minutes, so measuring the
    optimized cell and the baseline cell in separate blocks lets that
    drift masquerade as (or hide) a transport win.  Alternating them
    gives both cells the same conditions; best-of discards the
    slow-outlier runs both cells occasionally take."""
    rates = {"binary": 0.0, "pickle_unbatched": 0.0}
    for _ in range(pairs):
        rates["binary"] = max(
            rates["binary"], tcp_oar_ops_per_sec(requests_per_client)
        )
        rates["pickle_unbatched"] = max(
            rates["pickle_unbatched"],
            tcp_oar_ops_per_sec_baseline(requests_per_client),
        )
    return rates


def tcp_sharded_ops_per_sec(requests_per_client: int) -> float:
    """The B10 shape over sockets: 2 shards, 6 clients, uniform keys."""
    return _ops_per_sec(
        RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                seed=0,
                n_shards=2,
                n_servers=3,
                n_clients=6,
                requests_per_client=requests_per_client,
                machine="kv",
                workload="uniform",
                n_keys=64,
                driver="open",
                open_rate=500.0,
                trace_level="off",
            ),
            backend="tcp",
            codec="binary",
        )
    )


def tcp_readheavy_ops_per_sec(requests_per_client: int) -> float:
    """The B12 shape over sockets: replica-local optimistic reads."""
    return _ops_per_sec(
        RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                seed=0,
                n_shards=2,
                n_servers=3,
                n_clients=6,
                requests_per_client=requests_per_client,
                machine="bank",
                workload="readheavy",
                read_ratio=0.9,
                read_mode="optimistic",
                driver="open",
                open_rate=500.0,
                trace_level="off",
            ),
            backend="tcp",
            codec="binary",
        )
    )


# ----------------------------------------------------------------------
# Section driver
# ----------------------------------------------------------------------

def run_wallclock(quick: bool = False) -> Dict[str, Any]:
    """Measure every wall-clock cell; returns the ``wallclock`` section."""
    codec_n = 4_000 if quick else 12_000  # x len(mix) frames, best of 3
    pingpong_n = 3_000 if quick else 10_000
    oar_requests = 150 if quick else 400
    sharded_requests = 100 if quick else 250

    codec = {
        name: round(rate, 1) for name, rate in codec_rates(codec_n).items()
    }
    pingpong = {
        name: round(tcp_pingpong_msgs_per_sec(name, pingpong_n), 1)
        for name in ("binary", "pickle")
    }
    oar = {
        name: round(rate, 1)
        for name, rate in oar_rates(
            oar_requests, pairs=3 if quick else 5
        ).items()
    }
    section: Dict[str, Any] = {
        "codec_roundtrips_per_sec": codec,
        "tcp_pingpong_msgs_per_sec": pingpong,
        "tcp_oar_ops_per_sec": oar,
        "tcp_sharded_ops_per_sec": {
            "binary": round(tcp_sharded_ops_per_sec(sharded_requests), 1)
        },
        "tcp_readheavy_ops_per_sec": {
            "binary": round(tcp_readheavy_ops_per_sec(sharded_requests), 1)
        },
        "ratios": {
            "codec_binary_vs_pickle": round(codec["binary"] / codec["pickle"], 2),
            "oar_binary_vs_pre_pr": round(
                oar["binary"] / oar["pickle_unbatched"], 2
            ),
        },
    }
    return section


def format_wallclock(section: Dict[str, Any]) -> str:
    """Human-readable rendering of the wallclock section."""
    lines = ["Wall-clock cells (real TCP backend, tracing off)", ""]
    for key, cells in section.items():
        if key == "ratios":
            continue
        rendered = ", ".join(f"{name}={value:,.0f}" for name, value in cells.items())
        lines.append(f"  {key:<28} {rendered}")
    ratios = section["ratios"]
    lines.append("")
    lines.append(
        f"  codec binary/pickle: {ratios['codec_binary_vs_pickle']:.2f}x   "
        f"OAR binary vs pre-PR shape: {ratios['oar_binary_vs_pre_pr']:.2f}x"
    )
    return "\n".join(lines)
