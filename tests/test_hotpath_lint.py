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
from repro.core.calculation import calculate_quantile
from repro.mesh.relay import explode_runs
from repro.network.messages import RelayRunsMessage
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
