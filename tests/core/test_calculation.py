"""Tests for the calculation step."""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CalculationError
from repro.core.calculation import calculate_quantile, merge_candidate_runs
from repro.core.slicing import slice_sorted_events
from repro.core.window_cut import window_cut
from repro.streaming.columns import EventColumns, merge_sorted_runs
from repro.streaming.events import Event, event_key, make_events


class TestMergeCandidateRuns:
    def test_merges_sorted_runs(self):
        run_a = make_events([1, 3, 5], node_id=1)
        run_b = make_events([2, 4, 6], node_id=2)
        merged = merge_candidate_runs([run_a, run_b])
        assert [e.value for e in merged] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_empty_runs(self):
        assert merge_candidate_runs([]) == []
        assert merge_candidate_runs([[], []]) == []

    def test_unsorted_run_rejected(self):
        bad = make_events([3, 1], node_id=1)
        with pytest.raises(CalculationError):
            merge_candidate_runs([bad])

    def test_duplicate_values_keep_key_order(self):
        run_a = make_events([2.0, 2.0], node_id=1)
        run_b = make_events([2.0], node_id=2)
        merged = merge_candidate_runs([run_a, run_b])
        assert [e.key for e in merged] == sorted(e.key for e in merged)


#: Candidate runs as the simulator holds them (event lists) and as the
#: root receives them off the wire (columns); every test takes both.
RUN_FORMS = (list, EventColumns.from_events)


class TestCalculateQuantile:
    def cases(self, values, gamma, rank):
        events = sorted(make_events(values, node_id=1), key=event_key)
        sliced = slice_sorted_events(events, gamma, 1)
        cut = window_cut(sliced.synopses, rank)
        for form in RUN_FORMS:
            runs = [
                form(sliced.run_for(s.slice_index)) for s in cut.candidates
            ]
            yield cut, runs, events, form

    def test_selects_exact_rank(self):
        for cut, runs, events, _ in self.cases(range(100), gamma=10, rank=42):
            assert calculate_quantile(cut, runs) == events[41]

    def test_wrong_event_count_rejected(self):
        for cut, runs, _, _ in self.cases(range(100), gamma=10, rank=42):
            with pytest.raises(CalculationError):
                calculate_quantile(cut, runs[:-1] if len(runs) > 1 else [])

    def test_rank_one(self):
        for cut, runs, events, _ in self.cases(range(50), gamma=7, rank=1):
            assert calculate_quantile(cut, runs) == events[0]

    def test_rank_last(self):
        for cut, runs, events, _ in self.cases(range(50), gamma=7, rank=50):
            assert calculate_quantile(cut, runs) == events[-1]

    def test_tampered_run_rejected(self):
        for cut, runs, _, form in self.cases(range(100), gamma=10, rank=42):
            tampered = [form(list(reversed(run))) for run in runs]
            with pytest.raises(CalculationError, match="not sorted"):
                calculate_quantile(cut, tampered)


# ----------------------------------------------------------------------
# Columnar/object parity: the lexsort selection must return the very
# event the heapq merge returns, bit for bit.
# ----------------------------------------------------------------------

#: A small pool forces duplicate values across runs, signed zeros and NaN.
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan")]),
    st.floats(width=64, allow_nan=False),
)


@st.composite
def sorted_runs(draw, elements=_values):
    """1–5 runs, one producing node each, every run sorted by event key."""
    runs = []
    for node_id in range(1, draw(st.integers(1, 5)) + 1):
        values = draw(st.lists(elements, max_size=12))
        runs.append(sorted(make_events(values, node_id=node_id), key=event_key))
    return runs


def _bits(event: Event) -> tuple:
    return (
        struct.pack("<d", event.value),
        event.timestamp,
        event.node_id,
        event.seq,
    )


@settings(max_examples=300, deadline=None)
@given(sorted_runs(), st.data())
def test_columnar_and_object_paths_select_the_same_event(runs, data):
    total = sum(len(run) for run in runs)
    columns = [EventColumns.from_events(run) for run in runs]
    # The object path's reference input is what the root used to hand it:
    # the decoded columns' events (one float object per event, as off the
    # wire — NaN tuple comparisons depend on object identity).
    runs = [list(run) for run in columns]
    has_nan = any(event.value != event.value for run in runs for event in run)
    # NaN makes comparison order the contract: only the object merge has it.
    assert (merge_sorted_runs(columns) is None) == has_nan
    if not has_nan and columns:
        assert merge_sorted_runs(columns)[1] is None
    if not total:
        return
    cut = SimpleNamespace(
        candidate_events=total,
        local_rank=data.draw(st.integers(1, total), label="local_rank"),
    )
    expected = calculate_quantile(cut, runs)
    assert _bits(calculate_quantile(cut, columns)) == _bits(expected)

    wrong = SimpleNamespace(candidate_events=total + 1, local_rank=1)
    with pytest.raises(CalculationError, match="candidate events"):
        calculate_quantile(wrong, columns)


@settings(max_examples=200, deadline=None)
@given(sorted_runs(_values.filter(lambda v: v == v)), st.data())
def test_unsorted_columnar_run_rejected_like_object_run(runs, data):
    tamperable = [
        index for index, run in enumerate(runs)
        if len({event.key for event in run}) > 1
    ]
    if not tamperable:
        return
    index = data.draw(st.sampled_from(tamperable), label="run")
    runs[index] = list(reversed(runs[index]))
    cut = SimpleNamespace(
        candidate_events=sum(len(run) for run in runs), local_rank=1
    )
    with pytest.raises(CalculationError) as from_objects:
        calculate_quantile(cut, runs)
    with pytest.raises(CalculationError) as from_columns:
        calculate_quantile(cut, [EventColumns.from_events(r) for r in runs])
    assert str(from_columns.value) == str(from_objects.value)
