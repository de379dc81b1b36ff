"""Properties of units and the window-cut algorithm."""

from hypothesis import given, settings, strategies as st

from repro.core.slicing import slice_sorted_events
from repro.core.units import SliceKind, build_units, classify_slice
from repro.core.window_cut import (
    rank_bound_candidates,
    window_cut,
    window_cut_multi,
)
from repro.streaming.events import event_key, make_events


@st.composite
def sliced_synopses(draw):
    """Random multi-node sliced windows with their backing runs."""
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    gamma = draw(st.integers(min_value=2, max_value=30))
    synopses = []
    runs = {}
    all_events = []
    for node_id in range(1, n_nodes + 1):
        values = draw(
            st.lists(
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=0,
                max_size=80,
            )
        )
        events = sorted(make_events(values, node_id=node_id), key=event_key)
        sliced = slice_sorted_events(events, gamma, node_id)
        synopses.extend(sliced.synopses)
        for index in range(sliced.n_slices):
            runs[(node_id, index)] = sliced.run_for(index)
        all_events.extend(events)
    all_events.sort(key=event_key)
    return synopses, runs, all_events


@given(sliced_synopses(), st.floats(min_value=0.001, max_value=1.0))
@settings(max_examples=250, deadline=None)
def test_units_partition_ranks(case, q):
    synopses, _, all_events = case
    units = build_units(synopses)
    assert sum(u.size for u in units) == len(all_events)
    next_rank = 1
    for unit in units:
        assert unit.pos_start == next_rank
        next_rank = unit.pos_end + 1
    if all_events:
        assert next_rank == len(all_events) + 1


@given(sliced_synopses(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=250, deadline=None)
def test_window_cut_equals_reference_and_is_sound(case, rank_seed):
    synopses, runs, all_events = case
    if not all_events:
        return
    rank = rank_seed % len(all_events) + 1

    fast = window_cut(synopses, rank)
    slow = rank_bound_candidates(synopses, rank)
    assert fast.candidate_ids == slow.candidate_ids
    assert fast.n_below == slow.n_below

    # Soundness: merged candidates at local_rank give the true global event.
    candidate_events = []
    for synopsis in fast.candidates:
        candidate_events.extend(runs[synopsis.slice_id])
    candidate_events.sort(key=event_key)
    truth = all_events[rank - 1]
    assert candidate_events[fast.local_rank - 1] == truth


@given(sliced_synopses())
@settings(max_examples=150, deadline=None)
def test_unit_rank_bounds_bracket_true_ranks(case):
    synopses, _, all_events = case
    if not all_events:
        return
    global_rank = {e.key: i + 1 for i, e in enumerate(all_events)}
    for unit in build_units(synopses):
        for member in unit.members:
            assert unit.min_rank(member) <= global_rank[member.first_key]
            assert unit.max_rank(member) >= global_rank[member.last_key]
            assert unit.pos_start <= unit.min_rank(member)
            assert unit.max_rank(member) <= unit.pos_end


@given(sliced_synopses(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_pruned_slices_are_classifiable(case, rank_seed):
    """Every non-candidate slice lies strictly below or above the rank."""
    synopses, runs, all_events = case
    if not all_events:
        return
    rank = rank_seed % len(all_events) + 1
    cut = window_cut(synopses, rank)
    candidate_ids = cut.candidate_ids
    truth_key = all_events[rank - 1].key
    for synopsis in synopses:
        if synopsis.slice_id in candidate_ids:
            continue
        events = runs[synopsis.slice_id]
        assert all(e.key != truth_key for e in events)


def _classify_census(synopses, cut):
    """The kinds census rebuilt through the public ``classify_slice``."""
    counts = {kind.value: 0 for kind in SliceKind}
    chosen = cut.candidate_ids
    for unit in build_units(synopses):
        for member in unit.members:
            if member.slice_id in chosen:
                counts[classify_slice(unit, member).value] += 1
    return counts


@given(sliced_synopses(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_kinds_census_matches_classify_slice(case, rank_seed):
    synopses, _, all_events = case
    if not all_events:
        return
    rank = rank_seed % len(all_events) + 1
    for cut in (
        window_cut(synopses, rank),
        rank_bound_candidates(synopses, rank),
        window_cut_multi(synopses, [rank])[rank],
    ):
        assert cut.kinds == _classify_census(synopses, cut)
