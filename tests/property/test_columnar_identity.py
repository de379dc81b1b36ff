"""Property: the columnar hot path is bit-identical to the object path.

The columnar refactor's contract is that it changes *where* bytes live,
never *what* the protocol computes: the same workload through
``SortedLocalWindow`` fed per-event ``Event`` objects and fed
``EventColumns`` batches must seal the same window (bit for bit, NaN
payloads included), cut the same ranks, and serve the same quantiles.

Event fingerprints compare ``struct.pack``ed value bits, not ``==``:
NaN events are never equal to anything, yet must still come out in the
exact order the object path would have produced.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calculation import merge_candidate_runs
from repro.core.engine import dema_quantile
from repro.errors import SliceError
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.streaming.columns import (
    EventColumns,
    merge_runs,
    merge_sorted_runs,
)
from repro.streaming.events import Event, event_key, make_events

_F64 = struct.Struct("<d")


def _bits(event):
    """Bit-exact fingerprint; NaN payloads compare by representation."""
    return (
        _F64.pack(event.value), event.timestamp, event.node_id, event.seq
    )


def _window_bits(events):
    return [_bits(e) for e in events]


def _synopsis_bits(synopsis):
    first, last = synopsis.first_key, synopsis.last_key
    return (
        _F64.pack(first[0]), first[1], first[2],
        _F64.pack(last[0]), last[1], last[2],
        synopsis.count, synopsis.slice_index, synopsis.n_slices,
        synopsis.node_id,
    )


# Values drawn from a small pool (forcing exact duplicates) or from the
# full float line including NaN and infinities.  Every draw is re-packed
# into a *fresh* float object, the way wire decode always produces them:
# a shared NaN object would flip tuple comparisons through CPython's
# identity fast path, an order production never sees.
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("nan"), float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
).map(lambda v: _F64.unpack(_F64.pack(v))[0])


@st.composite
def event_batches(draw):
    """A chunked arrival sequence: list of chunks of events.

    Timestamps are drawn independently, so chunks routinely contain
    late events relative to earlier chunks.
    """
    n = draw(st.integers(min_value=0, max_value=60))
    events = [
        Event(
            value=draw(_values),
            timestamp=draw(st.integers(min_value=0, max_value=50)),
            node_id=draw(st.integers(min_value=1, max_value=3)),
            seq=i,
        )
        for i in range(n)
    ]
    chunks = []
    while events:
        size = draw(st.integers(min_value=1, max_value=max(1, len(events))))
        chunks.append(events[:size])
        events = events[size:]
    return chunks


@given(event_batches(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sealed_windows_identical(chunks, compact_between):
    object_window = SortedLocalWindow()
    columnar_window = SortedLocalWindow()
    for chunk in chunks:
        for event in chunk:
            object_window.add(event)
        columnar_window.add_all(EventColumns.from_events(chunk))
        if compact_between:
            # Mid-window cuts force the incremental merge path (run +
            # pending) instead of one big terminal sort.
            object_window.sorted_events()
            columnar_window.sorted_events()
    sealed_obj = object_window.seal()
    sealed_col = columnar_window.seal()
    assert _window_bits(sealed_col) == _window_bits(sealed_obj)


@given(event_batches(), st.integers(min_value=2, max_value=20))
@settings(max_examples=100, deadline=None)
def test_cuts_identical(chunks, gamma):
    events = [event for chunk in chunks for event in chunk]
    object_window = SortedLocalWindow()
    columnar_window = SortedLocalWindow()
    for event in events:
        object_window.add(event)
    if events:
        columnar_window.add_all(EventColumns.from_events(events))

    sealed_obj = object_window.seal()
    sealed_col = columnar_window.seal()
    try:
        sliced_obj = slice_sorted_events(sealed_obj, gamma, node_id=1)
    except SliceError:
        # NaN can leave the "sorted" run unordered, which synopsis
        # validation rejects — the columnar cut must reject identically.
        with pytest.raises(SliceError):
            slice_sorted_events(sealed_col, gamma, node_id=1)
        return
    sliced_col = slice_sorted_events(sealed_col, gamma, node_id=1)

    assert sliced_col.window_size == sliced_obj.window_size
    assert [_synopsis_bits(s) for s in sliced_col.synopses] == [
        _synopsis_bits(s) for s in sliced_obj.synopses
    ]
    assert [_window_bits(run) for run in sliced_col.runs] == [
        _window_bits(run) for run in sliced_obj.runs
    ]


@given(
    st.dictionaries(
        keys=st.integers(min_value=1, max_value=3),
        values=st.lists(
            st.floats(
                min_value=-1e9, max_value=1e9,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1,
            max_size=40,
        ),
        min_size=1,
        max_size=3,
    ),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=2, max_value=30),
)
@settings(max_examples=100, deadline=None)
def test_served_quantiles_identical(per_node, q, gamma):
    object_windows = {
        node_id: make_events(vals, node_id=node_id)
        for node_id, vals in per_node.items()
    }
    columnar_windows = {
        node_id: EventColumns.from_events(events)
        for node_id, events in object_windows.items()
    }
    expected = dema_quantile(object_windows, q=q, gamma=gamma)
    result = dema_quantile(columnar_windows, q=q, gamma=gamma)
    assert _F64.pack(result.value) == _F64.pack(expected.value)
    assert result.rank == expected.rank
    assert result.global_window_size == expected.global_window_size
    assert result.candidate_events == expected.candidate_events
    assert result.candidate_slices == expected.candidate_slices
    assert result.synopses == expected.synopses


# NaN-free pools that reach both branches of the columnar sort.  The tie
# pool forces equal values (duplicates, 0.0 against -0.0, a repeated
# infinity), so the stable three-key lexsort decides the order; distinct
# values leave the order to the one-key argsort alone.  (``_values`` above
# draws NaN in most batches, which routes the whole batch to the
# comparison mirror instead.)
_tie_values = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf")]),
    min_size=0,
    max_size=60,
)
_distinct_values = st.lists(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    min_size=0,
    max_size=60,
    unique=True,  # ``==``-unique: 0.0 and -0.0 never both appear
)
_nan_free_values = st.one_of(_tie_values, _distinct_values)


@st.composite
def nan_free_events(draw):
    """Events with strict ``(node_id, seq)`` keys and NaN-free values."""
    values = draw(_nan_free_values)
    return [
        Event(
            value=value,
            timestamp=draw(st.integers(min_value=0, max_value=50)),
            node_id=draw(st.integers(min_value=1, max_value=3)),
            seq=i,
        )
        for i, value in enumerate(values)
    ]


def _lexsort_reference(events):
    """The three-key stable ``np.lexsort`` every columnar sort must equal."""
    cols = EventColumns.from_events(events)
    order = np.lexsort((cols.seqs, cols.node_ids, cols.values))
    return EventColumns.from_arrays(
        cols.values[order],
        cols.timestamps[order],
        cols.node_ids[order],
        cols.seqs[order],
    ).to_wire()


def _wire(events):
    return EventColumns.from_events(events).to_wire()


@given(nan_free_events(), st.integers(min_value=0, max_value=60))
@settings(max_examples=200, deadline=None)
def test_nan_free_merge_runs_equals_lexsort_and_object_path(events, cut):
    # One sort of a whole batch.
    sorted_obj = sorted(events, key=event_key)
    merged = merge_runs(None, EventColumns.from_events(events))
    assert merged.to_wire() == _lexsort_reference(events)
    assert merged.to_wire() == _wire(sorted_obj)

    # A pending batch merged into an already sorted run.
    cut %= len(events) + 1
    head, tail = events[:cut], events[cut:]
    if head:
        run = merge_runs(None, EventColumns.from_events(head))
        pending = EventColumns.from_events(tail)
        merged = merge_runs(run, pending)
        assert merged.to_wire() == _lexsort_reference(list(run) + tail)
        assert merged.to_wire() == _wire(sorted_obj)


@given(nan_free_events(), st.integers(min_value=1, max_value=60))
@settings(max_examples=200, deadline=None)
def test_nan_free_seal_equals_lexsort_and_object_path(events, chunk):
    object_window = SortedLocalWindow()
    columnar_window = SortedLocalWindow()
    for start in range(0, len(events), chunk):
        batch = events[start:start + chunk]
        object_window.add_all(batch)
        columnar_window.add_all(EventColumns.from_events(batch))
        if start:
            object_window.sorted_events()
            columnar_window.sorted_events()
    sealed = _wire(columnar_window.seal())
    assert sealed == _wire(object_window.seal())
    assert sealed == _lexsort_reference(events)


@given(
    st.lists(nan_free_events(), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_nan_free_candidate_merge_equals_lexsort_and_heap_merge(
    windows, gamma
):
    # Candidate runs as the root receives them: γ-slices of sorted local
    # windows, in arrival order (window by window).
    runs = []
    for node_id, events in enumerate(windows, start=1):
        events = [
            Event(e.value, e.timestamp, node_id, e.seq) for e in events
        ]
        sealed = merge_runs(None, EventColumns.from_events(events))
        runs.extend(slice_sorted_events(sealed, gamma, node_id).runs)
    if not runs:
        return
    merged, misplaced = merge_sorted_runs(runs)
    assert misplaced is None
    arrived = [event for run in runs for event in run]
    assert merged.to_wire() == _lexsort_reference(arrived)
    object_runs = [list(run) for run in runs]
    assert merged.to_wire() == _wire(merge_candidate_runs(object_runs))


@given(nan_free_events(), st.integers(min_value=2, max_value=20))
@settings(max_examples=150, deadline=None)
def test_columnar_synopsis_keys_are_exact_python_scalars(events, gamma):
    sealed_obj = sorted(events, key=event_key)
    sealed_col = merge_runs(None, EventColumns.from_events(events))
    sliced_col = slice_sorted_events(sealed_col, gamma, node_id=1)
    sliced_obj = slice_sorted_events(sealed_obj, gamma, node_id=1)
    assert [_synopsis_bits(s) for s in sliced_col.synopses] == [
        _synopsis_bits(s) for s in sliced_obj.synopses
    ]
    for synopsis in sliced_col.synopses:
        for value, node_id, seq in (synopsis.first_key, synopsis.last_key):
            assert type(value) is float
            assert type(node_id) is int
            assert type(seq) is int
