"""End-to-end chaos runs: a named scenario on either substrate, graded.

:func:`run_chaos` generates a seeded workload, computes the fault-free
ground truth with a plain :class:`~repro.core.engine.DemaEngine`, then runs
the *same* workload under the scenario's fault plan — either compiled onto
the simulator or injected into the live asyncio cluster — and classifies
every ground-truth window:

``recovered``
    Answered with completeness 1.0 and a value bit-identical to the
    fault-free run (retransmits, reconnects and session resume hid the
    fault entirely).
``degraded``
    Answered from a strict subset of the locals (completeness < 1.0)
    because the failure detector declared someone dead.
``lost``
    No answer at all — the window was aborted or the run gave up on it.
``mismatch``
    Answered at full completeness but with a different value; this is
    never expected and always indicates a protocol bug.

This module imports the live runtime, so :mod:`repro.faults` loads it
lazily; plan building stays importable without asyncio machinery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.generator import GeneratorConfig, workload_columns
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, ToleranceConfig, describe_event
from repro.faults.scenarios import SCENARIOS, build_plan
from repro.faults.simulate import compile_plan
from repro.network.topology import TopologyConfig
from repro.obs.live.config import TelemetryConfig
from repro.obs.tracer import NOOP_TRACER, Tracer
from repro.runtime.cluster import LiveClusterConfig, run_live
from repro.streaming.windows import Window

__all__ = ["ChaosReport", "run_chaos"]

#: Detector grace when the scenario declares no detection threshold: long
#: enough that nothing is ever declared dead within a test-scale run.
_NO_DETECT_GRACE_S = 3600.0


@dataclass
class ChaosReport:
    """One graded chaos run."""

    scenario: str
    mode: str
    seed: int
    plan: FaultPlan
    #: Canonical fault-event strings actually applied, in order.
    applied: list[str]
    #: Ground-truth window count (windows the fault-free run answered).
    windows: int
    #: Per-window grade: recovered / degraded / lost / mismatch.
    classes: dict[Window, str] = field(default_factory=dict)
    reconnects: int = 0
    heartbeat_misses: int = 0
    locals_declared_dead: int = 0
    wall_seconds: float = 0.0
    #: Live mode with telemetry: the run report's telemetry section
    #: (bound port, flight-recorder path, traced span count).
    telemetry: dict = field(default_factory=dict)
    #: Mesh scenarios: deployment shape and failover accounting.
    shards: int = 0
    relay_fanin: int = 0
    shard_failovers: int = 0
    windows_adopted: int = 0
    relay_frames_replayed: int = 0
    #: Query scenarios: driver connections re-established mid-run.
    driver_reconnects: int = 0
    #: Aggregate grade counts for substrates whose grading is not
    #: per-window (mesh runs grade per window but fill this directly;
    #: query runs grade per (query, window) pair).  When set, it is the
    #: source of truth for :meth:`count` and :attr:`classes` stays empty.
    class_counts: "dict[str, int] | None" = None

    def count(self, grade: str) -> int:
        """Windows (or graded pairs) with the given grade."""
        if self.class_counts is not None:
            return self.class_counts.get(grade, 0)
        return sum(1 for g in self.classes.values() if g == grade)

    @property
    def recovered(self) -> int:
        return self.count("recovered")

    @property
    def degraded(self) -> int:
        return self.count("degraded")

    @property
    def lost(self) -> int:
        return self.count("lost")

    @property
    def mismatched(self) -> int:
        return self.count("mismatch")


def _classify(truth: dict, outcomes) -> dict:
    got = {outcome.window: outcome for outcome in outcomes}
    classes: dict[Window, str] = {}
    for window, value in truth.items():
        outcome = got.get(window)
        if outcome is None or outcome.value is None:
            classes[window] = "lost"
        elif outcome.completeness < 1.0:
            classes[window] = "degraded"
        elif outcome.value == value:
            classes[window] = "recovered"
        else:
            classes[window] = "mismatch"
    return classes


def run_chaos(
    scenario_name: str,
    *,
    mode: str = "sim",
    seed: int = 7,
    n_locals: int = 2,
    streams_per_local: int = 2,
    rate: float = 300.0,
    duration_s: float = 3.0,
    time_scale: float = 0.3,
    transport: str = "memory",
    gamma: int = 64,
    q: float = 0.5,
    tracer: Tracer = NOOP_TRACER,
    telemetry: TelemetryConfig | None = None,
    shards: int = 0,
    relay_fanin: int = 0,
) -> ChaosReport:
    """Run one named scenario and grade every window against ground truth.

    Args:
        scenario_name: A key of :data:`~repro.faults.scenarios.SCENARIOS`.
        mode: ``"sim"`` compiles the plan onto the discrete-event
            simulator; ``"live"`` injects it into the asyncio cluster.
            Mesh and query scenarios run live only.
        seed: Seeds both the workload and the scenario's fault timings.
        n_locals: Local node count (fault targets are drawn from these).
        streams_per_local: Live replay tasks per local (live mode only).
        rate: Aggregate events per second of event time.
        duration_s: Workload length in event-time seconds (= plan horizon).
        time_scale: Live mode: wall seconds per event-time second.
        transport: Live mode: ``"memory"`` or ``"tcp"``.
        gamma: Fixed slice count (adaptive γ would break bit-equality).
        q: The quantile.
        tracer: Observability hooks for the faulted run.
        telemetry: Live mode: turn on the telemetry plane (wire tracing,
            scrape endpoint, flight recorder) for the chaotic run.
        shards: Mesh scenarios: root shard count (defaults to 2 — the
            smallest ring with a successor to fail onto).
        relay_fanin: Mesh scenarios: relay fan-in (``kill-shard-with-relay``
            defaults to 3; ``0`` keeps the flat local→shard wiring).
    """
    if mode not in ("sim", "live"):
        raise ConfigurationError(
            f"chaos mode must be 'sim' or 'live', got {mode!r}"
        )
    scenario = SCENARIOS.get(scenario_name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown chaos scenario {scenario_name!r}; "
            f"expected one of {sorted(SCENARIOS)}"
        )
    if scenario.substrate == "mesh":
        return _run_mesh_chaos(
            scenario_name,
            mode=mode,
            seed=seed,
            n_locals=n_locals,
            streams_per_local=streams_per_local,
            rate=rate,
            duration_s=duration_s,
            transport=transport,
            gamma=gamma,
            q=q,
            tracer=tracer,
            telemetry=telemetry,
            shards=shards,
            relay_fanin=relay_fanin,
        )
    if scenario.substrate == "query":
        return _run_query_chaos(
            scenario_name,
            mode=mode,
            seed=seed,
            n_locals=n_locals,
            streams_per_local=streams_per_local,
            rate=rate,
            duration_s=duration_s,
            time_scale=time_scale,
            transport=transport,
            gamma=gamma,
            tracer=tracer,
        )
    if shards or relay_fanin:
        raise ConfigurationError(
            f"scenario {scenario_name!r} runs on the flat topology; "
            "--shards/--relay-fanin apply to mesh scenarios only"
        )
    plan = build_plan(
        scenario_name, seed=seed, horizon_s=duration_s, n_locals=n_locals
    )
    query = QuantileQuery(q=q, gamma=gamma)
    streams = workload_columns(
        list(range(1, n_locals + 1)),
        GeneratorConfig(
            event_rate=max(1.0, rate / n_locals),
            duration_s=duration_s,
            seed=seed,
        ),
    )
    events = {node: list(columns) for node, columns in streams.items()}
    truth_report = DemaEngine(
        query, TopologyConfig(n_local_nodes=n_locals)
    ).run(events)
    truth = {
        outcome.window: outcome.value
        for outcome in truth_report.outcomes
        if outcome.value is not None
    }

    started = time.monotonic()
    if mode == "sim":
        tolerance = ToleranceConfig()
        engine = DemaEngine(
            query,
            TopologyConfig(n_local_nodes=n_locals),
            reliability=tolerance.reliability,
            degrade_after_retries=True,
            tracer=tracer,
        )
        applied = compile_plan(
            plan,
            engine.simulator,
            root=engine.root,
            detect_after_s=scenario.detect_after_s,
        )
        report = engine.run(events)
        return ChaosReport(
            scenario=scenario_name,
            mode=mode,
            seed=seed,
            plan=plan,
            applied=applied,
            windows=len(truth),
            classes=_classify(truth, report.outcomes),
            locals_declared_dead=engine.root.deaths_declared,
            wall_seconds=time.monotonic() - started,
        )

    detect = scenario.detect_after_s
    declare_dead = (
        _NO_DETECT_GRACE_S
        if detect is None
        else max(0.15, detect * time_scale)
    )
    tolerance = ToleranceConfig(declare_dead_after_s=declare_dead)
    config = LiveClusterConfig(
        n_locals=n_locals,
        streams_per_local=streams_per_local,
        query=query,
        transport=transport,
        time_scale=time_scale,
        timeout_s=120.0,
        faults=plan,
        tolerance=tolerance,
        telemetry=telemetry,
    )
    live = run_live(config, streams, tracer=tracer)
    return ChaosReport(
        scenario=scenario_name,
        mode=mode,
        seed=seed,
        plan=plan,
        applied=list(live.fault_events),
        windows=len(truth),
        classes=_classify(truth, live.outcomes),
        reconnects=live.reconnects,
        heartbeat_misses=live.heartbeat_misses,
        locals_declared_dead=live.locals_declared_dead,
        wall_seconds=time.monotonic() - started,
        telemetry=live.telemetry,
    )


def _run_mesh_chaos(
    scenario_name: str,
    *,
    mode: str,
    seed: int,
    n_locals: int,
    streams_per_local: int,
    rate: float,
    duration_s: float,
    transport: str,
    gamma: int,
    q: float,
    tracer: Tracer,
    telemetry: TelemetryConfig | None,
    shards: int,
    relay_fanin: int,
) -> ChaosReport:
    """Kill one root shard mid-run and grade the failover end to end.

    The victim comes from the scenario's seeded plan; the kill itself is
    pinned to a protocol point — the victim's first answered window —
    via the :meth:`~repro.mesh.servers.MeshRootServer.crash_after`
    tripwire, because an unpaced replay outruns any wall-clock schedule.
    """
    import asyncio

    from repro.mesh.cluster import (
        classify_outcomes,
        mesh_oracle,
        run_mesh_cluster,
    )
    from repro.mesh.config import MeshConfig

    if mode != "live":
        raise ConfigurationError(
            f"mesh scenario {scenario_name!r} runs on the live substrate "
            "only (the simulator has no shard plane)"
        )
    n_shards = shards if shards else 2
    if n_shards < 2:
        raise ConfigurationError(
            "kill-shard needs at least 2 shards — a lone root has no "
            "successor to fail onto"
        )
    fanin = relay_fanin
    if not fanin and scenario_name == "kill-shard-with-relay":
        fanin = 3
    plan = build_plan(
        scenario_name, seed=seed, horizon_s=duration_s, n_locals=n_shards
    )
    victim = plan.schedule()[0].node
    assert victim is not None

    query = QuantileQuery(q=q, gamma=gamma)
    streams = workload_columns(
        list(range(1, n_locals + 1)),
        GeneratorConfig(
            event_rate=max(1.0, rate / n_locals),
            duration_s=duration_s,
            seed=seed,
        ),
    )
    config = MeshConfig(
        n_locals=n_locals,
        streams_per_local=streams_per_local,
        n_shards=n_shards,
        relay_fanin=fanin,
        query=query,
        transport=transport,
        timeout_s=120.0,
        relay_flush_s=0.1,
        # Fast heartbeats drive the failover sweep; the *local* death
        # threshold stays loose — no local dies in these scenarios, and
        # a tight threshold lets one slow tick on a loaded host declare
        # a healthy local dead and degrade windows spuriously.
        tolerance=ToleranceConfig(
            heartbeat_interval_s=0.02, declare_dead_after_s=2.0
        ),
        telemetry=telemetry,
    )
    truth = mesh_oracle(streams, config)

    async def disturb(ctx) -> None:
        ctx.shards[victim].crash_after(1)

    started = time.monotonic()
    report = asyncio.run(
        run_mesh_cluster(config, streams, tracer=tracer, disturb=disturb)
    )
    return ChaosReport(
        scenario=scenario_name,
        mode=mode,
        seed=seed,
        plan=plan,
        applied=[describe_event(event) for event in plan.schedule()],
        windows=len(truth),
        class_counts=classify_outcomes(truth, report.outcomes),
        locals_declared_dead=report.locals_declared_dead,
        heartbeat_misses=report.heartbeat_misses,
        wall_seconds=time.monotonic() - started,
        shards=n_shards,
        relay_fanin=fanin,
        shard_failovers=report.shard_failovers,
        windows_adopted=report.windows_adopted,
        relay_frames_replayed=report.relay_frames_replayed,
        telemetry=report.telemetry,
    )


def _run_query_chaos(
    scenario_name: str,
    *,
    mode: str,
    seed: int,
    n_locals: int,
    streams_per_local: int,
    rate: float,
    duration_s: float,
    time_scale: float,
    transport: str,
    gamma: int,
    tracer: Tracer,
) -> ChaosReport:
    """Drop the query driver's connection mid-run; grade exactly-once.

    Grades per (query, window) pair: ``recovered`` results matched the
    per-query oracle bit-identically, ``lost`` pairs never arrived, and
    ``mismatch`` covers wrong values and duplicate deliveries (the
    exactly-once promise failing in either direction).
    """
    from repro.queries.runner import run_query_scenario

    if mode != "live":
        raise ConfigurationError(
            f"query scenario {scenario_name!r} runs on the live substrate "
            "only (the simulator has no query plane)"
        )
    plan = build_plan(
        scenario_name, seed=seed, horizon_s=duration_s, n_locals=n_locals
    )
    started = time.monotonic()
    qreport = run_query_scenario(
        driver_drop=True,
        n_locals=n_locals,
        streams_per_local=streams_per_local,
        event_rate=rate,
        duration_s=duration_s,
        time_scale=max(time_scale, 0.05),
        transport=transport,
        gamma=gamma,
        seed=seed,
        tracer=None,
    )
    lost = sum(
        1 for note in qreport.mismatches if "no result for window" in note
    )
    bad = len(qreport.mismatches) - lost
    return ChaosReport(
        scenario=scenario_name,
        mode=mode,
        seed=seed,
        plan=plan,
        applied=[describe_event(event) for event in plan.schedule()],
        windows=qreport.results_graded + lost,
        class_counts={
            "recovered": qreport.results_graded - bad,
            "degraded": 0,
            "lost": lost,
            "mismatch": bad,
        },
        wall_seconds=time.monotonic() - started,
        driver_reconnects=qreport.driver_reconnects,
    )
