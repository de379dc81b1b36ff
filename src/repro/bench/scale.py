"""Scale-out benchmark: the mesh runtime from 2 to 100+ locals.

For each point on the locals curve the benchmark runs the same workload
twice — flat (every local dials every shard) and relayed (fan-in-F
relays combine frames) — asserts both are bit-identical to the
single-root engine oracle, and records wall-clock throughput, per-layer
byte/latency breakdowns and root ingress.  The headline numbers are the
throughput-vs-locals curve and the relay tier's root-ingress savings
(bytes and, more dramatically, frames: ingress frames drop from one per
local to one per relay per window phase).

The result is written as ``BENCH_scale.json`` so scaling regressions
show up as artifact diffs in CI.
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Any

from repro.bench.generator import GeneratorConfig, workload_columns
from repro.core.query import QuantileQuery
from repro.errors import HarnessError
from repro.mesh import (
    MeshConfig,
    MeshRunReport,
    classify_outcomes,
    mesh_oracle,
    run_mesh,
)
from repro.network.metrics import LatencyStats

__all__ = ["scale_benchmark", "write_scale_bench", "DEFAULT_SCALE_PATH"]

DEFAULT_SCALE_PATH = "BENCH_scale.json"

#: Locals-curve points; the top end is the 100-local acceptance run.
DEFAULT_CURVE = (2, 10, 50, 100)


def _latency_dict(stats: LatencyStats) -> "dict[str, float]":
    if stats.count == 0:
        return {"count": 0}
    return {
        "count": stats.count,
        "mean_ms": stats.mean * 1e3,
        "p50_ms": stats.p50 * 1e3,
        "p95_ms": stats.p95 * 1e3,
        "max_ms": stats.max * 1e3,
    }


def _run_dict(report: MeshRunReport) -> "dict[str, Any]":
    ingress_frames = sum(
        count
        for layer, count in report.messages_by_layer.items()
        if layer in ("local_root", "relay_root")
    )
    return {
        "wall_seconds": report.wall_seconds,
        "events_per_second": report.events_per_second,
        "bytes_by_layer": report.bytes_by_layer,
        "messages_by_layer": report.messages_by_layer,
        "total_bytes": report.total_bytes,
        "root_ingress_bytes": report.root_ingress_bytes,
        "root_link_frames": ingress_frames,
        "seal_to_result": _latency_dict(report.seal_to_result),
        "relay_frames_combined": report.relay_frames_combined,
        "relay_sections_combined": report.relay_sections_combined,
    }


def scale_benchmark(
    *,
    curve: "tuple[int, ...]" = DEFAULT_CURVE,
    streams_per_local: int = 1,
    n_shards: int = 4,
    relay_fanin: int = 8,
    event_rate: int = 60,
    duration_s: int = 3,
    q: float = 0.5,
    gamma: int = 10_000,
    seed: int = 42,
    transport: str = "memory",
    timeout_s: float = 300.0,
) -> "dict[str, Any]":
    """Run the locals curve, flat vs relayed, and return the summary.

    Every run is checked against the single-root oracle: any window that
    is not bit-identical fails the benchmark with a
    :class:`~repro.errors.HarnessError` — the scale numbers are only
    worth reporting for a correct mesh.
    """
    query = QuantileQuery(q=q, gamma=gamma)
    points: "list[dict[str, Any]]" = []
    for n_locals in curve:
        local_ids = list(range(1, n_locals + 1))
        streams = workload_columns(
            local_ids,
            GeneratorConfig(
                event_rate=event_rate, duration_s=duration_s, seed=seed
            ),
        )
        shards = min(n_shards, n_locals)
        flat_config = MeshConfig(
            n_locals=n_locals,
            streams_per_local=streams_per_local,
            n_shards=shards,
            query=query,
            transport=transport,
            timeout_s=timeout_s,
        )
        truth = mesh_oracle(streams, flat_config)
        flat = run_mesh(flat_config, streams)
        _require_identical("flat", n_locals, truth, flat)

        relay_config = MeshConfig(
            n_locals=n_locals,
            streams_per_local=streams_per_local,
            n_shards=shards,
            relay_fanin=relay_fanin,
            query=query,
            transport=transport,
            timeout_s=timeout_s,
        )
        relayed = run_mesh(relay_config, streams)
        _require_identical("relay", n_locals, truth, relayed)

        flat_dict = _run_dict(flat)
        relay_dict = _run_dict(relayed)
        ingress_saved = 1.0 - (
            relayed.root_ingress_bytes / flat.root_ingress_bytes
            if flat.root_ingress_bytes
            else 1.0
        )
        frames_saved = 1.0 - (
            relay_dict["root_link_frames"] / flat_dict["root_link_frames"]
            if flat_dict["root_link_frames"]
            else 1.0
        )
        points.append({
            "n_locals": n_locals,
            "n_shards": shards,
            "relay_fanin": relay_fanin,
            "windows": flat.windows,
            "events_sent": flat.events_sent,
            "flat": flat_dict,
            "relay": relay_dict,
            "relay_ingress_savings": ingress_saved,
            "relay_frame_savings": frames_saved,
        })
    return {
        "benchmark": "mesh_scale",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "config": {
            "streams_per_local": streams_per_local,
            "relay_fanin": relay_fanin,
            "event_rate": event_rate,
            "duration_s": duration_s,
            "q": q,
            "gamma": gamma,
            "seed": seed,
            "transport": transport,
        },
        "curve": points,
    }


def _require_identical(
    mode: str, n_locals: int, truth, report: MeshRunReport
) -> None:
    classes = classify_outcomes(truth, report.outcomes)
    if classes["recovered"] != len(truth) or classes["mismatch"]:
        raise HarnessError(
            f"{mode} mesh run at {n_locals} locals is not bit-identical "
            f"to the single-root oracle: {classes}"
        )


def write_scale_bench(
    path: str = DEFAULT_SCALE_PATH, **kwargs: Any
) -> "dict[str, Any]":
    """Run :func:`scale_benchmark` and write the JSON artifact."""
    result = scale_benchmark(**kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return result
