"""The window-cut algorithm (Section 3.2, Algorithm 1).

Given all slice synopses of a global window and the quantile rank
``k = Pos(q)``, window-cut selects the minimal set of **candidate slices**
whose events must be fetched to answer the quantile exactly, plus the exact
number of events that rank below every candidate (``n_below``) so the
calculation step can select the right element from the merged candidates.

Two implementations are provided:

* :func:`rank_bound_candidates` — the reference: computes per-slice rank
  bounds for every slice and keeps those whose bound interval contains
  ``k``.  Obviously correct, O(total²) in the worst case within a unit.
* :func:`window_cut` — the paper's algorithm: a sweep in ascending position
  order that stops as soon as the unit containing ``k`` has been processed
  (the "scan from the edges toward the quantile position, then break" of
  Algorithm 1), and prunes inside that unit with the same rank bounds.
  Cover-slices enclosed by a candidate are kept whenever their bound
  interval can reach ``k``, exactly as Section 3.2 prescribes.

Both return identical results (property-tested); ``window_cut`` simply does
asymptotically less work when the quantile's unit sits early in the order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import IdentificationError
from repro.core.synopsis import SliceSynopsis
from repro.core.units import (
    SliceKind,
    SliceUnit,
    _member_kind,
    build_units,
)

__all__ = [
    "CutResult",
    "rank_bound_candidates",
    "window_cut",
    "window_cut_multi",
]


@dataclass(frozen=True, slots=True)
class CutResult:
    """Outcome of candidate-slice selection for one quantile rank.

    Attributes:
        rank: The global rank ``k`` being located.
        candidates: Candidate synopses, ascending ``first_key`` order.
        n_below: Events guaranteed to rank strictly below rank ``k`` that are
            *not* part of any candidate slice.  The answer is the element at
            local rank ``rank - n_below`` of the merged candidate events.
        units_scanned: How many units the algorithm examined (work metric).
        kinds: Taxonomy census of the candidate slices.
    """

    rank: int
    candidates: tuple[SliceSynopsis, ...]
    n_below: int
    units_scanned: int = 0
    kinds: dict = field(default_factory=dict)

    @property
    def candidate_events(self) -> int:
        """Total events that the calculation step will transfer."""
        return sum(synopsis.count for synopsis in self.candidates)

    @property
    def candidate_ids(self) -> set[tuple[int, int]]:
        """The ``(node_id, slice_index)`` ids of all candidates."""
        return {synopsis.slice_id for synopsis in self.candidates}

    @property
    def local_rank(self) -> int:
        """Rank of the answer within the merged candidate events (1-based)."""
        return self.rank - self.n_below


def _validate_rank(rank: int, total: int) -> None:
    if total <= 0:
        raise IdentificationError("cannot cut an empty global window")
    if not 1 <= rank <= total:
        raise IdentificationError(
            f"rank {rank} outside the global window of {total} events"
        )


def _cut_unit(unit: SliceUnit, rank: int) -> tuple[list[SliceSynopsis], int]:
    """Select candidates within the unit containing ``rank``.

    Returns the candidate members (ascending key order) and the number of
    certainly-below events contributed by pruned members of this unit.
    """
    members = unit.members
    offset = unit.offset
    n = len(members)
    if n == 1:
        # A singleton's rank bounds are exact: offset+1 .. offset+count.
        member = members[0]
        if offset + member.count < rank:
            return [], member.count
        if offset + 1 <= rank:
            return [member], 0
        return [], 0
    # Rank bounds for all members are computed together: one sorted pass
    # plus two bisects per member replaces the O(members²) pairwise
    # certainly-above/-below scans of :meth:`SliceUnit.min_rank` /
    # :meth:`SliceUnit.max_rank`, with identical results.  Members arrive
    # in ascending ``first_key`` order (``build_units`` sorts), so the
    # slices certainly above a member — ``first_key > member.last_key`` —
    # form a suffix of that order; ``cum[i]`` holds the events in
    # ``members[:i]``.
    counts = [member.count for member in members]
    first_keys = [member.first_key for member in members]
    cum = [0] * (n + 1)
    for i, count in enumerate(counts):
        cum[i + 1] = cum[i] + count
    size = cum[n]
    # Certainly below — ``last_key < member.first_key`` — needs the same
    # prefix trick in ascending ``last_key`` order.
    by_last = sorted(zip((member.last_key for member in members), counts))
    last_keys = [key for key, _ in by_last]
    below_cum = [0] * (n + 1)
    for i, (_, count) in enumerate(by_last):
        below_cum[i + 1] = below_cum[i] + count
    candidates = []
    below_in_unit = 0
    for member in members:
        min_rank = (
            offset
            + below_cum[bisect.bisect_left(last_keys, member.first_key)]
            + 1
        )
        max_rank = offset + cum[
            bisect.bisect_right(first_keys, member.last_key)
        ]
        if min_rank <= rank <= max_rank:
            candidates.append(member)
        elif max_rank < rank:
            below_in_unit += member.count
    return candidates, below_in_unit


def rank_bound_candidates(
    synopses: Iterable[SliceSynopsis], rank: int
) -> CutResult:
    """Reference candidate selection via exhaustive rank bounds.

    Args:
        synopses: All slice synopses of the global window.
        rank: The 1-based global rank ``k = Pos(q)`` to locate.

    Raises:
        IdentificationError: If the window is empty or ``rank`` is out of
            range.
    """
    units = build_units(synopses)
    total = sum(unit.size for unit in units)
    _validate_rank(rank, total)

    candidates: list[SliceSynopsis] = []
    n_below = 0
    for unit in units:
        if not unit.contains_rank(rank):
            if unit.pos_end < rank:
                n_below += unit.size
            continue
        unit_candidates, below_in_unit = _cut_unit(unit, rank)
        candidates.extend(unit_candidates)
        n_below += below_in_unit
    return CutResult(
        rank=rank,
        candidates=tuple(candidates),
        n_below=n_below,
        units_scanned=len(units),
        kinds=_census(units, candidates),
    )


def window_cut(
    synopses: Iterable[SliceSynopsis],
    rank: int,
    *,
    global_window_size: int | None = None,
) -> CutResult:
    """Window-cut per Algorithm 1: sweep toward the quantile, then break.

    Slices are visited in ascending position order (ascending ``first_key``
    after unit grouping).  Units entirely left of ``rank`` only contribute
    their sizes to ``n_below``; the sweep stops right after processing the
    unit whose exact rank interval contains ``rank`` — the early exits of
    lines 7 and 14 in Algorithm 1.  Within that unit, compound members are
    kept when their rank-bound interval can reach ``rank`` and cover-slices
    enclosed by a candidate are kept under the same test (Section 3.2's
    cover-slice rule).

    Args:
        synopses: All slice synopses of the global window.
        rank: The 1-based global rank to locate.
        global_window_size: Optional cross-check; when provided it must equal
            the sum of synopsis counts.

    Raises:
        IdentificationError: On an empty window, an out-of-range rank, or a
            ``global_window_size`` mismatch.
    """
    ordered = sorted(synopses, key=lambda s: (s.first_key, s.last_key))
    total = sum(synopsis.count for synopsis in ordered)
    if global_window_size is not None and global_window_size != total:
        raise IdentificationError(
            f"synopses cover {total} events but the global window reports "
            f"{global_window_size}"
        )
    _validate_rank(rank, total)

    # Sweep units lazily in ascending position order and stop at the first
    # unit whose rank interval reaches ``rank`` — the early exit of
    # Algorithm 1.  Units after it are never materialized.
    n_below = 0
    scanned = 0
    index = 0
    while index < len(ordered):
        scanned += 1
        members = [ordered[index]]
        current_max = ordered[index].last_key
        index += 1
        while index < len(ordered) and ordered[index].first_key <= current_max:
            members.append(ordered[index])
            if ordered[index].last_key > current_max:
                current_max = ordered[index].last_key
            index += 1
        unit = SliceUnit(members=tuple(members), offset=n_below)
        if unit.pos_end < rank:
            n_below += unit.size
            continue
        candidates, below_in_unit = _cut_unit(unit, rank)
        return CutResult(
            rank=rank,
            candidates=tuple(candidates),
            n_below=n_below + below_in_unit,
            units_scanned=scanned,
            kinds=_census([unit], candidates),
        )
    raise IdentificationError(
        f"no unit contains rank {rank}; synopses are inconsistent"
    )  # pragma: no cover - unreachable after _validate_rank


def window_cut_multi(
    synopses: Iterable[SliceSynopsis],
    ranks: Sequence[int],
    *,
    global_window_size: int | None = None,
) -> dict[int, CutResult]:
    """Resolve several ranks from **one** sweep over the synopses.

    The multi-query plane's workhorse: N queries sharing a (key, window)
    need N ranks from the same synopsis set, and a single ascending sweep
    resolves each rank the moment its containing unit is materialized.
    Every returned :class:`CutResult` is exactly what
    :func:`window_cut` would produce for that rank alone — same
    candidates, same ``n_below``, same ``units_scanned``, same kinds
    census (property-tested) — the sweep is simply not repeated per rank.

    Args:
        synopses: All slice synopses of the global window.
        ranks: The 1-based global ranks to locate; duplicates collapse.
        global_window_size: Optional cross-check against the synopsis sum.

    Returns:
        A :class:`CutResult` per distinct rank, keyed by rank.

    Raises:
        IdentificationError: On an empty window, no ranks, an out-of-range
            rank, or a ``global_window_size`` mismatch.
    """
    if not ranks:
        raise IdentificationError("need at least one rank to cut for")
    ordered = sorted(synopses, key=lambda s: (s.first_key, s.last_key))
    total = sum(synopsis.count for synopsis in ordered)
    if global_window_size is not None and global_window_size != total:
        raise IdentificationError(
            f"synopses cover {total} events but the global window reports "
            f"{global_window_size}"
        )
    pending = sorted(set(ranks))
    for rank in pending:
        _validate_rank(rank, total)

    cuts: dict[int, CutResult] = {}
    n_below = 0
    scanned = 0
    index = 0
    next_rank = 0  # index into ``pending``
    while index < len(ordered) and next_rank < len(pending):
        scanned += 1
        members = [ordered[index]]
        current_max = ordered[index].last_key
        index += 1
        while index < len(ordered) and ordered[index].first_key <= current_max:
            members.append(ordered[index])
            if ordered[index].last_key > current_max:
                current_max = ordered[index].last_key
            index += 1
        unit = SliceUnit(members=tuple(members), offset=n_below)
        while (
            next_rank < len(pending)
            and pending[next_rank] <= unit.pos_end
        ):
            rank = pending[next_rank]
            candidates, below_in_unit = _cut_unit(unit, rank)
            cuts[rank] = CutResult(
                rank=rank,
                candidates=tuple(candidates),
                n_below=n_below + below_in_unit,
                units_scanned=scanned,
                kinds=_census([unit], candidates),
            )
            next_rank += 1
        n_below += unit.size
    if next_rank < len(pending):
        raise IdentificationError(
            f"no unit contains rank {pending[next_rank]}; synopses are "
            "inconsistent"
        )  # pragma: no cover - unreachable after _validate_rank
    return cuts


def _census(
    units: Sequence[SliceUnit], candidates: Sequence[SliceSynopsis]
) -> dict:
    """Count candidate slices by taxonomy kind."""
    chosen = {synopsis.slice_id for synopsis in candidates}
    counts = {kind.value: 0 for kind in SliceKind}
    for unit in units:
        for member in unit.members:
            if member.slice_id in chosen:
                counts[_member_kind(unit, member).value] += 1
    return counts
