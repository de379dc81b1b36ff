"""Dema's calculation step (Section 3.1).

The root has fetched the candidate slices' events — each slice arrives as a
run that is already sorted, because the local node sorted its window before
slicing.  The root checks that every run is sorted, merges the runs into the
candidates' total order on ``(value, node_id, seq)`` and selects the element
at local rank ``k − n_below``.

Runs decoded off the wire are columnar batches; for those the merge is one
sort of the concatenated columns
(:func:`~repro.streaming.columns.merge_sorted_runs`): an ``argsort`` of the
values, and a stable three-key ``lexsort`` only when two values tie.  The
selected element is the only event ever materialized.  Object runs (the
simulator's) and runs holding a NaN value take the k-way ``heapq`` merge
over event objects, whose comparison order is the reference both paths
reproduce.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.errors import CalculationError
from repro.streaming.columns import merge_sorted_runs
from repro.streaming.events import Event, event_key
from repro.core.window_cut import CutResult

# Hot-path module: columnar candidate runs are merged and selected without
# per-event ``Event`` objects (enforced by tests/test_hotpath_lint.py).

__all__ = ["merge_candidate_runs", "calculate_quantile"]


def _unsorted(event: Event) -> CalculationError:
    return CalculationError(
        "candidate run is not sorted; local node violated the "
        f"protocol near event {event}"
    )


def merge_candidate_runs(runs: Iterable[Sequence[Event]]) -> list[Event]:
    """K-way merge of pre-sorted candidate runs into one sorted list.

    Raises:
        CalculationError: If any run is not sorted by event key — that would
            mean a local node violated the protocol.
    """
    materialized = [list(run) for run in runs]
    for run in materialized:
        for left, right in zip(run, run[1:]):
            if left.key > right.key:
                raise _unsorted(right)
    return list(heapq.merge(*materialized, key=event_key))


def calculate_quantile(
    cut: CutResult, runs: Iterable[Sequence[Event]]
) -> Event:
    """Select the quantile event from the fetched candidate runs.

    Args:
        cut: The window-cut result that produced the fetch plan.
        runs: The candidate slices' event runs, in any order — columnar
            batches or event sequences.

    Returns:
        The event whose global rank is ``cut.rank``.

    Raises:
        CalculationError: If a run is not sorted, or the runs do not match
            the cut (wrong total count, or the local rank falls outside the
            merged events).
    """
    runs = list(runs)
    columnar = merge_sorted_runs(runs)
    if columnar is None:
        merged = merge_candidate_runs(runs)
    else:
        merged, misplaced = columnar
        if misplaced is not None:
            raise _unsorted(misplaced)
    if len(merged) != cut.candidate_events:
        raise CalculationError(
            f"expected {cut.candidate_events} candidate events, "
            f"received {len(merged)}"
        )
    local_rank = cut.local_rank
    if not 1 <= local_rank <= len(merged):
        raise CalculationError(
            f"local rank {local_rank} outside the {len(merged)} fetched "
            "events; identification and calculation disagree"
        )
    return merged[local_rank - 1]
