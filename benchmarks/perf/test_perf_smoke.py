"""Smoke tests for the perf harness (catches harness bitrot in tier-1).

These do not assert absolute speed -- machines differ -- only that every
benchmark runs, produces sane numbers, and that the kernel fast path is
actually faster than a trivially slow floor.  The determinism digest is
asserted exactly (it is machine-independent).
"""

import asyncio
import json
import time

import pytest

from benchmarks.perf import harness

pytestmark = pytest.mark.bench


def test_suite_runs_quick_and_payload_is_complete(tmp_path):
    # wallclock=False: the TCP cells take tens of seconds and are
    # covered by test_wallclock_cells below with tiny shapes.
    payload = harness.run_suite(quick=True, repeats=1, wallclock=False)
    assert "wallclock" not in payload
    for bench in harness.BENCHES:
        assert payload["results"][bench.key] > 0
    assert payload["mode"] == "quick"
    # Rate-style micros are compared against the pre-PR baseline even in
    # quick mode; quick wall-clocks are not (different workload sizes),
    # and benchmarks of paths that did not exist pre-PR (the read path)
    # have no baseline to compare against.
    assert set(payload["speedup_vs_pre_pr"]) == {
        key for key in harness.RATE_KEYS if key in harness.PRE_PR_BASELINE
    }
    # The payload is JSON-serializable and round-trips.
    out = tmp_path / "perf.json"
    harness.write_payload(payload, str(out))
    assert json.loads(out.read_text())["schema"] == 1
    # Table rendering covers every benchmark.
    table = harness.format_table(payload)
    for bench in harness.BENCHES:
        assert bench.label in table


def test_wallclock_cells():
    """Tiny-shape versions of the real-backend cells: the codec micro
    keeps its margin over pickle, the TCP ping-pong moves messages, and
    the section renders.  Full-size cells run in ``run_perf.py``."""
    from benchmarks.perf import wallclock

    rates = wallclock.codec_rates(300)
    assert rates["binary"] > rates["pickle"] > 0
    pingpong = wallclock.tcp_pingpong_msgs_per_sec("binary", 200)
    assert pingpong > 0
    # The reconstructed pre-PR transport (the OAR baseline cell's
    # denominator) still hosts a full scenario end to end.
    assert wallclock.tcp_oar_ops_per_sec_baseline(5) > 0
    section = {
        "codec_roundtrips_per_sec": {k: round(v, 1) for k, v in rates.items()},
        "tcp_pingpong_msgs_per_sec": {"binary": round(pingpong, 1)},
        "ratios": {
            "codec_binary_vs_pickle": round(rates["binary"] / rates["pickle"], 2),
            "oar_binary_vs_pre_pr": 1.0,
        },
    }
    rendered = wallclock.format_wallclock(section)
    assert "codec binary/pickle" in rendered


def test_golden_digest_is_stable():
    assert harness.golden_scenario_digest() == harness.GOLDEN_DIGEST


def test_kernel_dispatch_uses_fast_lane():
    """The cascade must beat a conservative floor that even modest
    hardware exceeds with the fast lane but not without it."""
    rate = max(harness.kernel_dispatch(60_000) for _ in range(2))
    assert rate > 500_000, f"kernel dispatch suspiciously slow: {rate:,.0f}/s"


def test_checker_bundle_scales_with_the_run():
    """check_all on a 2,000-op crash-failover run costs well under the
    run itself.  A ratio, so host speed cancels; an all-pairs checker
    pass (what the majority guarantee used to be) takes minutes here."""
    from repro.faults import FaultSchedule
    from repro.sharding.cluster import ShardedScenarioConfig, build_sharded_scenario
    from repro.sim.latency import UniformLatency

    run = build_sharded_scenario(ShardedScenarioConfig(
        n_shards=2,
        n_servers=3,
        n_clients=4,
        requests_per_client=500,
        machine="bank",
        workload="cross",
        cross_ratio=0.3,
        driver="open",
        open_rate=0.5,
        latency=UniformLatency(0.5, 1.5),
        fd_interval=2.0,
        fd_timeout=8.0,
        fault_schedule=FaultSchedule().crash(50.0, "s0.p1"),
        trace_level="full",
        seed=0,
    ))
    started = time.perf_counter()
    run.execute()
    execute_s = time.perf_counter() - started
    assert run.all_done()
    started = time.perf_counter()
    run.check_all(strict=False)
    check_s = time.perf_counter() - started
    assert check_s <= 0.5 * execute_s, (
        f"check_all took {check_s:.2f} s against {execute_s:.2f} s of run"
    )


def test_pump_receive_path_delivers_and_reaches_quiescence():
    """The reconstructed seed transport (an inbox queue per process
    drained by a pump task, the baseline cell's receive shape) still
    delivers every frame in per-channel FIFO order and completes a full
    sharded run that passes the checker bundle."""
    from benchmarks.perf.wallclock import SeedTcpCluster
    from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
    from repro.sharding.cluster import ShardedScenarioConfig
    from repro.sim.process import Process

    class Recorder(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.received = []

        def on_message(self, src, payload):
            self.received.append((src, payload))

    async def scenario():
        cluster = SeedTcpCluster()
        a, b = Recorder("a"), Recorder("b")
        cluster.add_process(a)
        cluster.add_process(b)
        await cluster.start()
        for index in range(10):
            a.env.send("b", index)
        delivered = await cluster.run_until(
            lambda: len(b.received) == 10, timeout=5
        )
        await cluster.shutdown()
        return delivered, [payload for _src, payload in b.received]

    delivered, payloads = asyncio.run(scenario())
    assert delivered
    assert payloads == list(range(10))  # per-channel FIFO survives

    run = run_runtime_scenario(
        RuntimeScenarioConfig(
            scenario=ShardedScenarioConfig(
                seed=7,
                n_shards=2,
                n_servers=3,
                n_clients=4,
                requests_per_client=10,
                machine="kv",
                workload="uniform",
                n_keys=32,
            ),
            backend="tcp",
            codec="pickle",
            tcp_batch_interval=None,
            tcp_cluster_factory=SeedTcpCluster,
        )
    )
    assert run.completed
    run.check_all()
