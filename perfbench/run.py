"""Repo benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload flat-tcp-unpaced --seed 1 \\
        --seconds 50 --trace 0

The workload's inputs are generated from ``--seed`` before anything is
timed.  The program is then called through its public entry points
(``run_live`` / ``run_mesh``) in repeats until ``--seconds`` have passed,
every window of every repeat is graded against an exact oracle, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": <windows>, "failed": <windows>,
     "metrics": {name: {"value": ..., "unit": ...}, ...}}

``--trace 0`` reports the end-to-end metrics from untraced repeats.
``--trace 1`` alternates untraced and traced repeats within the same time
and reports the per-layer ledger (see ``METRICS.md``).  Everything runs in
this one process on one event loop per repeat; no thread or process is
started.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Warm-up repeat length, in windows: fills caches and lazy imports.
WARMUP_WINDOWS = 3

#: Link layers that end at a root shard: the paper's network cost.
ROOT_TIER = ("local_root", "relay_root")


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the ``ceil(p*n)``-th smallest sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# One repeat.
# ----------------------------------------------------------------------


def run_repeat(workload, streams, truth, *, traced: bool) -> dict:
    """Call the program once and reduce its probes to one sample."""
    from ledger import instrumented
    from workloads import grade

    gc.collect()
    with instrumented(traced, len(truth)) as (probes, ledger):
        called = time.monotonic()
        report = workload.run(streams)
        returned = time.monotonic()
    lost, mismatched = grade(truth, report.outcomes)
    first_clock, first_cpu, first_covered = probes.first_accept
    done_clock, done_cpu, done_covered = probes.all_done
    events = sum(outcome.global_window_size for outcome in report.outcomes)
    sample = {
        "windows": len(truth),
        "lost": lost,
        "mismatched": mismatched,
        "events": events,
        "setup_s": first_clock - called,
        "serving_s": done_clock - first_clock,
        "teardown_s": returned - done_clock,
        "cpu_s": done_cpu - first_cpu,
        "covered_s": done_covered - first_covered,
        "bytes": dict(report.bytes_by_layer),
        "latencies": _latencies(probes, workload.window_ms),
        "values": {o.window.start: o.value for o in report.outcomes},
    }
    if ledger is not None:
        sample["ledger"] = ledger
    return sample


def _latencies(probes, length: int) -> list[float]:
    """Per-window seconds from the due time of its last event to its result.

    The replay is unpaced (a closed loop), so a batch is due when the
    replay loop offers it.
    """
    due: dict[int, float] = {}
    for record in probes.batches:
        for last_ts, offered in zip(record.last_ts, record.offered):
            window = last_ts - last_ts % length
            if offered > due.get(window, -math.inf):
                due[window] = offered
    results = probes.results
    return [results[w] - due[w] for w in sorted(due) if w in results]


# ----------------------------------------------------------------------
# Reduction to metrics.
# ----------------------------------------------------------------------


def end_to_end(samples: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over repeats, timings at the reference host speed.

    A closed loop computes as fast as the host lets it, so each repeat's
    timings are scaled by its host slowdown (``hostspeed.py``).
    """
    median = statistics.median
    latencies = [x / s["slowdown"] for s in samples for x in s["latencies"]]

    def per_event(count) -> float:
        return median(count(s["bytes"]) / s["events"] for s in samples)

    return {
        "events_per_s": (
            median(
                s["events"] / s["serving_s"] * s["slowdown"] for s in samples
            ),
            "1/s",
        ),
        "setup_s": (
            median(s["setup_s"] / s["slowdown"] for s in samples), "s"
        ),
        "result_latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "result_latency_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "cpu_s_per_mevent": (
            median(
                s["cpu_s"] / s["events"] * 1e6 / s["slowdown"] for s in samples
            ),
            "s",
        ),
        "root_tier_bytes_per_event": (
            per_event(lambda b: sum(b.get(k, 0) for k in ROOT_TIER)),
            "B/event",
        ),
        "total_bytes_per_event": (
            per_event(lambda b: sum(b.values())), "B/event"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(
    plain: list[dict], traced: list[dict]
) -> dict[str, tuple[float, str]]:
    from ledger import BOUNDARIES

    median = statistics.median
    metrics: dict[str, tuple[float, str]] = {}
    for boundary in BOUNDARIES:
        metrics[f"{boundary}_s"] = (
            median(s["ledger"].self_s.get(boundary, 0.0) for s in traced), "s"
        )

    def count(boundary: str) -> float:
        return median(s["ledger"].calls.get(boundary, 0) for s in traced)

    metrics["codec.frames"] = (count("codec.encode"), "count")
    metrics["local.windows_sealed"] = (count("local.seal_slice"), "count")
    metrics["relay.frames_combined"] = (count("relay.combine"), "count")
    metrics["local.ingest_events"] = (
        median(s["ledger"].ingest_events for s in traced), "count"
    )
    metrics["root.candidate_events"] = (
        median(s["ledger"].candidate_events for s in traced), "count"
    )
    metrics["root.candidate_frac"] = (
        median(s["ledger"].candidate_events / s["events"] for s in traced),
        "frac",
    )
    waits = [w for s in traced for w in s["ledger"].fetch_waits]
    metrics["root.fetch_wait_ms_p50"] = (
        percentile(waits, 0.5) * 1e3 if waits else 0.0, "ms"
    )
    for layer in ("stream_local", "local_root", "local_relay", "relay_root"):
        metrics[f"bytes.{layer}"] = (
            median(s["bytes"].get(layer, 0) / s["events"] for s in traced),
            "B/event",
        )
    metrics["driver.teardown_s"] = (
        median(s["teardown_s"] for s in plain), "s"
    )
    metrics["ledger.covered_frac"] = (
        median(s["covered_s"] / s["serving_s"] for s in traced),
        "frac",
    )
    cpu_plain = median(s["cpu_s"] / s["events"] / s["slowdown"] for s in plain)
    cpu_traced = median(
        s["cpu_s"] / s["events"] / s["slowdown"] for s in traced
    )
    metrics["trace.overhead_frac"] = (cpu_traced / cpu_plain - 1.0, "frac")
    return metrics


# ----------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from hostspeed import slowdown
    from workloads import WORKLOADS, grid_start, oracle, truncate

    workload = WORKLOADS[name]
    streams = workload.generate(seed)
    truth = oracle(streams, workload.window_ms, workload.q)
    generated = sum(len(columns) for columns in streams.values())
    start = grid_start(streams, workload.window_ms)
    warm = truncate(streams, start + WARMUP_WINDOWS * workload.window_ms)

    attempted = failed = 0
    correct = True

    def repeat(inputs, expected, total, traced):
        nonlocal attempted, failed, correct
        sample = run_repeat(workload, inputs, expected, traced=traced)
        attempted += sample["windows"]
        failed += sample["lost"] + sample["mismatched"]
        if sample["lost"] or sample["mismatched"] or sample["events"] != total:
            correct = False
        return sample

    repeat(
        warm,
        oracle(warm, workload.window_ms, workload.q),
        sum(len(columns) for columns in warm.values()),
        False,
    )
    # Repeats run until the budget is spent; traced runs alternate an
    # untraced and a traced repeat so both see the same machine.  The
    # host reference is timed between repeats (see ``hostspeed.py``).
    plain: list[dict] = []
    traced: list[dict] = []
    before = slowdown()
    began = time.monotonic()
    while not plain or (trace and not traced) or (
        time.monotonic() - began < seconds
    ):
        into = traced if trace and len(traced) < len(plain) else plain
        sample = repeat(streams, truth, generated, into is traced)
        after = slowdown()
        sample["slowdown"] = (before + after) / 2
        before = after
        into.append(sample)
        if sample["values"] != plain[0]["values"]:
            correct = False

    metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    _print_table(name, seed, plain, traced, metrics, attempted, failed)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }


def _print_table(name, seed, plain, traced, metrics, attempted, failed):
    latency_samples = sum(len(s["latencies"]) for s in plain)
    print(
        f"perfbench {name} seed={seed}: {len(plain)} untraced + "
        f"{len(traced)} traced repeats, {plain[0]['events']} events and "
        f"{plain[0]['windows']} windows per repeat, "
        f"{latency_samples} latency samples"
    )
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<28} {value:>16.6f} {unit}")
    fraction = failed / attempted if attempted else 0.0
    print(f"  {'windows_failed_frac':<28} {fraction:>16.6f} frac")
    host = statistics.median(s["slowdown"] for s in plain + traced)
    print(f"  {'host.slowdown':<28} {host:>16.6f} x")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
