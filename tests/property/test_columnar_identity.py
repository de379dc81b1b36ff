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

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import dema_quantile
from repro.errors import SliceError
from repro.core.slicing import slice_sorted_events
from repro.core.sorted_window import SortedLocalWindow
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event, make_events

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
