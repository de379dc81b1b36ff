"""The flight recorder catching a cluster death, end to end.

A live cluster that dies under chaos normally takes its evidence with it:
the run never reaches the orderly trace-export path.  This example arms
the telemetry plane's flight recorder, scripts an **unrecoverable**
fault — a partition that never heals, against a tolerance policy with a
single reconnect attempt — and lets the cluster die.  The failure latch
trips, the recorder dumps its ring buffer at the moment of death, and we
read the dump back: the last spans and events before the end, plus a
header naming the exception that killed the run.

CI runs this as its flight-recorder smoke and uploads the dump as a
workflow artifact.

Run with::

    python examples/flight_recorder_demo.py [dump-path]
"""

import json
import pathlib
import sys

from repro.bench.generator import GeneratorConfig, workload_columns
from repro.core.query import QuantileQuery
from repro.errors import TransportError
from repro.faults.plan import FaultEvent, FaultPlan, ToleranceConfig
from repro.obs.live import TelemetryConfig
from repro.runtime.cluster import LiveClusterConfig, run_live


def main() -> int:
    dump = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else "flight-recorder.jsonl"
    )

    plan = FaultPlan(
        seed=7,
        horizon_s=2.0,
        # Cut every local off the root at t=0.3s and never heal.
        events=(FaultEvent(at_s=0.3, kind="partition_start"),),
    )
    config = LiveClusterConfig(
        n_locals=2,
        streams_per_local=1,
        query=QuantileQuery(q=0.5, gamma=64),
        transport="memory",
        time_scale=0.3,
        timeout_s=60.0,
        faults=plan,
        # One dial attempt: the locals give up almost immediately.
        tolerance=ToleranceConfig(
            reconnect_base_delay_s=0.01,
            reconnect_max_delay_s=0.02,
            reconnect_jitter=0.0,
            reconnect_max_attempts=1,
        ),
        telemetry=TelemetryConfig(flight_recorder_path=dump),
    )
    # A high event rate so batches flush (and spans land in the ring)
    # in the short interval before the scripted death.
    streams = workload_columns(
        [1, 2], GeneratorConfig(event_rate=2000.0, duration_s=2.0, seed=7)
    )

    print("running a live cluster into an unhealed partition ...")
    try:
        run_live(config, streams)
    except TransportError as exc:
        print(f"cluster died as scripted: {exc}")
    else:
        print("unexpected: the cluster survived the partition", file=sys.stderr)
        return 1

    if not dump.exists() or dump.stat().st_size == 0:
        print("no flight recorder dump was written", file=sys.stderr)
        return 1

    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    header, evidence = rows[0], rows[1:]
    print(f"\nflight recorder dump: {dump} ({dump.stat().st_size} bytes)")
    print(f"  reason:   {header['reason']}")
    print(f"  retained: {header['retained']} of {header['recorded']} records "
          f"(ring capacity {header['capacity']})")
    kinds: dict[str, int] = {}
    for row in evidence:
        kinds[row["kind"]] = kinds.get(row["kind"], 0) + 1
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:>8}: {count}")
    print("\nlast three records before death:")
    for row in evidence[-3:]:
        print(f"  {json.dumps(row)[:100]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
