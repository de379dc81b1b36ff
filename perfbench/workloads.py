"""The benchmark's workloads, their generated inputs and the exact oracle.

Each workload makes a different layer do most of the work; the ``why``
lines say which, and are copied into ``BENCHMARK.json``.  Inputs come from
:func:`repro.bench.generator.workload_columns` under the run's seed and are
generated before anything is timed; the program under test receives only
these columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bench.generator import GeneratorConfig, workload_columns
from repro.core.query import QuantileQuery
from repro.mesh.cluster import run_mesh
from repro.mesh.config import MeshConfig
from repro.runtime.cluster import LiveClusterConfig, run_live
from repro.streaming.columns import EventColumns

#: Generous deadline for one entry-point call; a wedged run fails, not hangs.
RUN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    """One deployment shape plus the stream it replays."""

    name: str
    why: str
    #: ``"flat"`` → :func:`run_live`, ``"mesh"`` → :func:`run_mesh`.
    cluster: str
    transport: str
    n_locals: int
    streams_per_local: int
    gamma: int
    window_ms: int
    #: Event-time events per second, per local.
    event_rate: float
    #: Event-time seconds per repeat.
    duration_s: float
    n_shards: int = 1
    relay_fanin: int = 0
    q: float = 0.5

    def query(self) -> QuantileQuery:
        return QuantileQuery(
            q=self.q, window_length_ms=self.window_ms, gamma=self.gamma
        )

    def generate(self, seed: int) -> dict[int, EventColumns]:
        return workload_columns(
            range(1, self.n_locals + 1),
            GeneratorConfig(
                event_rate=self.event_rate,
                duration_s=self.duration_s,
                seed=seed,
            ),
        )

    def run(self, streams: dict[int, EventColumns]):
        """One call into the program's public entry point."""
        if self.cluster == "flat":
            config = LiveClusterConfig(
                n_locals=self.n_locals,
                streams_per_local=self.streams_per_local,
                query=self.query(),
                transport=self.transport,
                timeout_s=RUN_TIMEOUT_S,
            )
            return run_live(config, streams)
        config = MeshConfig(
            n_locals=self.n_locals,
            streams_per_local=self.streams_per_local,
            n_shards=self.n_shards,
            relay_fanin=self.relay_fanin,
            query=self.query(),
            transport=self.transport,
            timeout_s=RUN_TIMEOUT_S,
        )
        return run_mesh(config, streams)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="flat-tcp-unpaced",
            why=(
                "Closed loop over TCP: codec, transport and local seal+slice "
                "dominate; candidates are ~1% of events, so root "
                "calculation is a minor share."
            ),
            cluster="flat",
            transport="tcp",
            n_locals=4,
            streams_per_local=2,
            gamma=100,
            window_ms=1000,
            event_rate=20_000,
            duration_s=30.0,
        ),
        Workload(
            name="mesh-relay-dense",
            why=(
                "Overlapping streams make most events candidates: root "
                "identify/calculate, fetch and the relay tier dominate; the "
                "driver's per-event set-up shows; no sockets."
            ),
            cluster="mesh",
            transport="memory",
            n_locals=16,
            streams_per_local=1,
            gamma=1000,
            window_ms=1000,
            event_rate=1_000,
            duration_s=10.0,
            n_shards=2,
            relay_fanin=4,
        ),
    )
}


def grid_start(streams: dict[int, EventColumns], window_ms: int) -> int:
    """First window start of the tumbling grid, as the drivers compute it."""
    lo = min(columns.min_timestamp() for columns in streams.values())
    return lo - lo % window_ms


def truncate(
    streams: dict[int, EventColumns], end_ms: int
) -> dict[int, EventColumns]:
    """Each stream's prefix with timestamps below ``end_ms`` (a warm-up)."""
    return {
        node: columns[: int(np.searchsorted(columns.timestamps, end_ms))]
        for node, columns in streams.items()
    }


def oracle(
    streams: dict[int, EventColumns], window_ms: int, q: float
) -> dict[int, float | None]:
    """Exact quantile per window start of the grid, from the columns.

    The window's values from every local are gathered and the element of
    rank ``ceil(q * n)`` is selected — the paper's ``Pos(q)`` — with
    :func:`numpy.partition`, which picks exactly the element a full sort
    would put there.  An empty window's quantile is ``None``.
    """
    columns = list(streams.values())
    stamps = [np.asarray(c.timestamps, dtype=np.int64) for c in columns]
    values = [np.asarray(c.values, dtype=np.float64) for c in columns]
    lo = min(int(s[0]) for s in stamps if len(s))
    hi = max(int(s[-1]) for s in stamps if len(s))
    first = lo - lo % window_ms
    truth: dict[int, float | None] = {}
    for start in range(first, hi + 1, window_ms):
        parts = []
        for ts, vs in zip(stamps, values):
            a, b = np.searchsorted(ts, (start, start + window_ms))
            parts.append(vs[a:b])
        window = np.concatenate(parts)
        if not len(window):
            truth[start] = None
            continue
        k = math.ceil(q * len(window)) - 1
        truth[start] = float(np.partition(window, k)[k])
    return truth


def grade(truth: dict[int, float | None], outcomes) -> tuple[int, int]:
    """``(lost, mismatched)`` windows of one run against the oracle.

    A window is lost when no outcome exists or it was answered from a
    subset of the locals; it is mismatched when its value differs from the
    oracle's in any bit (an empty answer for a non-empty window included).
    """
    by_start = {outcome.window.start: outcome for outcome in outcomes}
    lost = mismatched = 0
    for start, expected in truth.items():
        outcome = by_start.get(start)
        if outcome is None or outcome.completeness < 1.0:
            lost += 1
        elif outcome.value != expected:
            mismatched += 1
    return lost, mismatched
