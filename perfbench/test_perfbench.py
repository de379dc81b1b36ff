"""Self-checks of the benchmark harness, on scaled-down workloads.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import pytest

import run

run._load_program()

import ledger  # noqa: E402
from repro.core.engine import DemaEngine  # noqa: E402
from repro.core.local_node import DemaLocalNode  # noqa: E402
from repro.core.root_node import DemaRootNode  # noqa: E402
from repro.mesh import servers as mesh_servers  # noqa: E402
from repro.network.topology import TopologyConfig  # noqa: E402
from repro.runtime import servers as runtime_servers  # noqa: E402
from workloads import WORKLOADS, grade, oracle  # noqa: E402

SEED = 3

#: Every attribute the harness replaces, as it was before any run.
ORIGINALS = {
    (owner, attribute): getattr(owner, attribute)
    for _, targets in ledger.BOUNDARIES.values()
    for owner, attribute in targets
} | {
    (owner, attribute): getattr(owner, attribute)
    for owner, attribute in (
        (DemaLocalNode, "ingest"),
        (DemaRootNode, "on_message"),
        (runtime_servers, "batches_for"),
        (mesh_servers, "batches_for"),
    )
}

#: Each workload's shape at a size that runs in about a second.
SMALL = {
    "flat-tcp-unpaced": dict(event_rate=2_000, duration_s=4.0),
    "mesh-relay-dense": dict(n_locals=8, event_rate=300, duration_s=4.0),
}

#: Boundaries every workload must exercise.
CORE = (
    "codec.encode", "codec.decode", "transport.send", "transport.recv",
    "stream.replay", "host.serve", "local.handle", "local.ingest",
    "local.seal_slice", "root.handle", "root.identify", "root.calculate",
)
RELAY = ("relay.combine", "relay.explode")


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


@pytest.fixture(scope="module", params=sorted(SMALL))
def pair(request):
    """One untraced and one traced repeat of a scaled-down workload."""
    workload = small(request.param)
    streams = workload.generate(SEED)
    truth = oracle(streams, workload.window_ms, workload.q)
    plain = run.run_repeat(workload, streams, truth, traced=False)
    traced = run.run_repeat(workload, streams, truth, traced=True)
    return workload, truth, plain, traced


def test_every_boundary_fires_where_it_is_meant_to(pair):
    workload, _, _, traced = pair
    calls = traced["ledger"].calls
    expected = CORE + (RELAY if workload.cluster == "mesh" else ())
    assert [b for b in expected if calls.get(b, 0) == 0] == []


def test_relay_boundaries_stay_silent_on_flat_workloads(pair):
    workload, _, _, traced = pair
    if workload.cluster != "flat":
        pytest.skip("relayed workload")
    calls = traced["ledger"].calls
    assert {b: calls.get(b, 0) for b in RELAY} == {b: 0 for b in RELAY}


def test_traced_and_untraced_runs_serve_the_oracle(pair):
    _, truth, plain, traced = pair
    assert plain["values"] == traced["values"] == truth
    for sample in (plain, traced):
        assert (sample["lost"], sample["mismatched"]) == (0, 0)


def test_serving_interval_and_ledger_are_consistent(pair):
    workload, truth, plain, traced = pair
    for sample in (plain, traced):
        assert sample["setup_s"] > 0 and sample["serving_s"] > 0
        assert sample["teardown_s"] >= 0
        assert len(sample["latencies"]) == len(truth)
    assert 0 < traced["covered_s"] <= traced["serving_s"] * 1.05


def test_wrappers_are_removed_after_a_run(pair):
    changed = [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for (owner, attribute), original in ORIGINALS.items()
        if getattr(owner, attribute) is not original
    ]
    assert changed == []


def test_oracle_matches_the_single_root_engine():
    workload = dataclasses.replace(small("flat-tcp-unpaced"), duration_s=3.0)
    streams = workload.generate(SEED)
    truth = oracle(streams, workload.window_ms, workload.q)
    engine = DemaEngine(
        workload.query(), TopologyConfig(n_local_nodes=workload.n_locals)
    )
    report = engine.run({node: list(cols) for node, cols in streams.items()})
    assert grade(truth, report.outcomes) == (0, 0)
    assert len(report.outcomes) == len(truth)


def test_host_slowdown_scales_timings_but_not_bytes():
    sample = {
        "events": 1_000_000, "serving_s": 2.0, "setup_s": 0.5, "cpu_s": 2.0,
        "latencies": [0.1, 0.2], "bytes": {"local_root": 1_000_000},
        "slowdown": 2.0,
    }
    metrics = run.end_to_end([sample])
    assert {name: value for name, (value, _) in metrics.items()} == {
        "events_per_s": 1_000_000.0, "setup_s": 0.25,
        "result_latency_p50_ms": 50.0, "result_latency_p95_ms": 100.0,
        "cpu_s_per_mevent": 1.0, "root_tier_bytes_per_event": 1.0,
        "total_bytes_per_event": 1.0, "peak_rss_mb": metrics["peak_rss_mb"][0],
    }
