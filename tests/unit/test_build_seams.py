"""The names the benchmark substitutes to instrument a build.

``perfbench/`` counts suspicions through a ``HeartbeatFailureDetector``
subclass patched over ``repro.sharding.cluster`` and
``repro.runtime.scenario``, and keeps the tcp workload's arrival
schedule through an ``OpenLoopDriver`` replacement patched over
``repro.runtime.scenario``.  A build that stops looking these names up
in those modules would silently zero the benchmark's ``failure.*``
metrics or break its tcp workload; these tests make that a test failure.
"""

import pytest

import repro.runtime.scenario as runtime_scenario
import repro.sharding.cluster as sharded_cluster
from repro.failure.detector import HeartbeatFailureDetector
from repro.runtime.scenario import RuntimeScenarioConfig, run_runtime_scenario
from repro.sharding.cluster import ShardedScenarioConfig, build_sharded_scenario
from repro.workload.drivers import OpenLoopDriver

pytestmark = pytest.mark.unit


class RecordingDetector(HeartbeatFailureDetector):
    pass


class RecordingDriver(OpenLoopDriver):
    pass


def _scenario(**overrides):
    base = dict(
        n_shards=2,
        n_servers=3,
        n_clients=2,
        requests_per_client=3,
        driver="open",
        open_rate=2.0,
        seed=1,
    )
    base.update(overrides)
    return ShardedScenarioConfig(**base)


def _asyncio_run():
    return run_runtime_scenario(
        RuntimeScenarioConfig(scenario=_scenario(), backend="asyncio", timeout=20.0)
    )


def test_sharded_build_uses_the_cluster_module_detector(monkeypatch):
    monkeypatch.setattr(sharded_cluster, "HeartbeatFailureDetector", RecordingDetector)
    run = build_sharded_scenario(_scenario())
    assert len(run.detectors) == 6
    assert all(type(fd) is RecordingDetector for fd in run.detectors.values())


def test_runtime_run_uses_the_runtime_module_detector(monkeypatch):
    monkeypatch.setattr(runtime_scenario, "HeartbeatFailureDetector", RecordingDetector)
    run = _asyncio_run()
    assert run.completed
    assert len(run.view.detectors) == 6
    assert all(type(fd) is RecordingDetector for fd in run.view.detectors.values())


def test_runtime_run_uses_the_runtime_module_open_loop_driver(monkeypatch):
    monkeypatch.setattr(runtime_scenario, "OpenLoopDriver", RecordingDriver)
    run = _asyncio_run()
    assert run.completed
    assert [type(driver) for driver in run.drivers] == [RecordingDriver] * 2
