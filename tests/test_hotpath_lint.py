"""Lint: marked hot-path modules must never construct ``Event`` objects.

The columnar refactor's whole payoff is that event batches cross the
stream → local → root pipeline as parallel arrays; a single stray
``Event(...)`` constructor in one of these modules silently reintroduces
the per-event allocation the refactor removed, and nothing else would
catch it (the bit-identity suite compares *results*, not allocation
counts).  Every module that opts into the discipline carries a
``Hot-path module:`` marker comment naming this test; the lint walks the
whole package so a marked module can never silently drop out of the
checked set by being moved.
"""

import pathlib
import re
from types import SimpleNamespace

import repro
from repro.bench.generator import GeneratorConfig, workload_columns
from repro.core.calculation import calculate_quantile
from repro.core.engine import DemaEngine
from repro.core.query import QuantileQuery
from repro.mesh import MeshConfig, classify_outcomes, mesh_oracle, run_mesh
from repro.mesh.relay import explode_runs
from repro.network.messages import RelayRunsMessage
from repro.network.topology import TopologyConfig
from repro.runtime.cluster import LiveClusterConfig, run_live
from repro.runtime.codec import decode_frame, encode_frame
from repro.streaming.columns import EventColumns
from repro.streaming.events import make_events
from repro.streaming.windows import Window

MARKER = "Hot-path module:"

#: ``Event(`` as a constructor call: not attribute-qualified (so
#: ``asyncio.Event()`` stays legal) and not a prefix of a longer name
#: (``EventColumns(``, ``EventBatchMessage(``).
EVENT_CALL = re.compile(r"(?<![A-Za-z0-9_.])Event\(")

PACKAGE_ROOT = pathlib.Path(repro.__file__).parent

#: The modules expected to carry the marker today; the lint fails if one
#: loses it, so the discipline cannot be turned off by deleting a comment.
EXPECTED_MARKED = {
    "core/calculation.py",
    "core/local_node.py",
    "core/root_node.py",
    "core/slicing.py",
    "core/sorted_window.py",
    "mesh/relay.py",
    "mesh/servers.py",
    "runtime/codec.py",
    "runtime/servers.py",
    "runtime/transport.py",
}


def _marked_modules():
    return {
        path.relative_to(PACKAGE_ROOT).as_posix(): path
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if MARKER in path.read_text()
    }


def test_expected_modules_are_marked():
    assert set(_marked_modules()) == EXPECTED_MARKED


def test_no_event_construction_in_hot_path_modules():
    violations = []
    for name, path in _marked_modules().items():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if EVENT_CALL.search(line):
                violations.append(f"{name}:{lineno}: {line.strip()}")
    assert not violations, (
        "Event objects constructed in hot-path modules:\n"
        + "\n".join(violations)
    )


def test_lint_regex_matches_constructor_calls_only():
    assert EVENT_CALL.search("event = Event(value=1.0)")
    assert EVENT_CALL.search("return [Event(*t) for t in rows]")
    assert not EVENT_CALL.search("self.done = asyncio.Event()")
    assert not EVENT_CALL.search("cols = EventColumns.from_wire(raw)")
    assert not EVENT_CALL.search("msg = EventBatchMessage(1, w)")


# The regex cannot see a batch materialized by iteration (``tuple(cols)``,
# ``list(run)``), so the two columnar hand-offs on the candidate path are
# pinned down directly.


def test_explode_runs_passes_decoded_columns_through():
    message = RelayRunsMessage(
        9, Window(0, 1000),
        sections=(
            (3, 0, tuple(make_events([1.0, 2.0], node_id=3))),
            (4, 1, tuple(make_events([0.5], node_id=4))),
        ),
    )
    decoded = decode_frame(encode_frame(message))
    parts = explode_runs(decoded)
    assert len(parts) == len(decoded.sections)
    for part, (_, _, events) in zip(parts, decoded.sections):
        assert isinstance(events, EventColumns)
        assert part.events is events


def test_columnar_calculation_never_iterates_a_batch(monkeypatch):
    runs = [
        EventColumns.from_events(make_events(values, node_id=node_id))
        for node_id, values in ((1, [1.0, 4.0, 9.0]), (2, [2.0, 3.0]))
    ]
    cut = SimpleNamespace(candidate_events=5, local_rank=3)

    def no_iteration(self):
        raise AssertionError("EventColumns iterated on the columnar path")

    monkeypatch.setattr(EventColumns, "__iter__", no_iteration)
    answer = calculate_quantile(cut, runs)
    assert (answer.value, answer.node_id, answer.seq) == (3.0, 2, 1)


# End to end: with iteration disabled, a live run and a relayed mesh run
# must still serve every window — no layer between the workload columns
# and the answer may fall back to per-event objects.  The oracles
# materialize events themselves, so they run before the patch.

GUARD_QUERY = QuantileQuery(q=0.5, gamma=64)


def _guard_streams():
    return workload_columns(
        [1, 2], GeneratorConfig(event_rate=300.0, duration_s=3.0, seed=11)
    )


def _forbid_iteration(monkeypatch):
    def no_iteration(self):
        raise AssertionError("EventColumns iterated on the live path")

    monkeypatch.setattr(EventColumns, "__iter__", no_iteration)


def _served(outcomes):
    return {o.window: o.value for o in outcomes if o.value is not None}


def test_live_run_never_iterates_columns(monkeypatch):
    streams = _guard_streams()
    expected = _served(
        DemaEngine(GUARD_QUERY, TopologyConfig(n_local_nodes=2))
        .run({node: list(columns) for node, columns in streams.items()})
        .outcomes
    )
    _forbid_iteration(monkeypatch)
    report = run_live(
        LiveClusterConfig(n_locals=2, query=GUARD_QUERY, transport="memory"),
        streams,
    )
    assert len(expected) >= 3
    assert _served(report.outcomes) == expected


def test_mesh_run_never_iterates_columns(monkeypatch):
    streams = _guard_streams()
    config = MeshConfig(
        n_locals=2, n_shards=2, relay_fanin=2, query=GUARD_QUERY,
        transport="memory",
    )
    truth = mesh_oracle(streams, config)
    _forbid_iteration(monkeypatch)
    report = run_mesh(config, streams)
    classes = classify_outcomes(truth, report.outcomes)
    assert classes["recovered"] == len(truth) >= 3
