"""γ-slicing of sorted local windows.

When a local window ends, the node cuts the sorted run into consecutive
slices of ``γ`` events (the final slice may be shorter) and produces one
synopsis per slice.  The paper requires every slice to contain at least two
events because a synopsis needs a distinct first and last event; the slicer
enforces this by folding a trailing 1-event remainder into the previous
slice.  A window with a single event yields one 1-event slice — its synopsis
*is* the event, so the requirement is moot.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Sequence

from repro.errors import SliceError
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event
from repro.core.synopsis import SliceSynopsis

# Hot-path module: a columnar window slices into columnar runs — keys are
# read straight off the arrays, and no per-event ``Event`` objects are
# built here (enforced by tests/test_hotpath_lint.py).

__all__ = ["SlicedWindow", "slice_sorted_events", "MIN_GAMMA"]

#: Every slice must hold at least two events (Section 3.1), hence γ ≥ 2.
MIN_GAMMA = 2


@dataclass(frozen=True, slots=True)
class SlicedWindow:
    """A local window cut into slices, ready for the identification step.

    Attributes:
        node_id: Owner of the window.
        runs: Per-slice sorted event runs; ``runs[i]`` backs ``synopses[i]``.
            Each run is a tuple of events or a columnar batch view,
            depending on how the window was fed — both are immutable
            event sequences with identical contents.
        synopses: One synopsis per slice, in value order.
    """

    node_id: int
    runs: tuple[Sequence[Event], ...]
    synopses: tuple[SliceSynopsis, ...]

    @property
    def window_size(self) -> int:
        """Total number of events in the local window."""
        return sum(len(run) for run in self.runs)

    @property
    def n_slices(self) -> int:
        """Number of slices the window was cut into."""
        return len(self.runs)

    def run_for(self, slice_index: int) -> Sequence[Event]:
        """The sorted event run backing slice ``slice_index``.

        Raises:
            SliceError: If the index is out of range.
        """
        if not 0 <= slice_index < len(self.runs):
            raise SliceError(
                f"slice index {slice_index} out of range "
                f"(window has {len(self.runs)} slices)"
            )
        return self.runs[slice_index]


def slice_sorted_events(
    sorted_events: Sequence[Event], gamma: int, node_id: int
) -> SlicedWindow:
    """Cut a sorted local window into γ-sized slices with synopses.

    Args:
        sorted_events: The window's events in ascending key order.  Order is
            validated in a debug assertion only; callers are the sorted
            window and tests.
        gamma: Target slice size; must be ≥ 2.
        node_id: Owner stamped into every synopsis.

    Returns:
        The sliced window.  Empty input yields a window with zero slices.

    Raises:
        SliceError: If ``gamma < 2``.
    """
    if gamma < MIN_GAMMA:
        raise SliceError(f"gamma must be >= {MIN_GAMMA}, got {gamma}")
    n = len(sorted_events)
    if n == 0:
        return SlicedWindow(node_id=node_id, runs=(), synopses=())

    boundaries = list(range(0, n, gamma))
    # A trailing 1-event slice cannot form a synopsis with two distinct
    # events; merge it into the previous slice (only possible when n > 1).
    if len(boundaries) > 1 and n - boundaries[-1] == 1:
        boundaries.pop()

    ends = boundaries[1:] + [n]
    if isinstance(sorted_events, EventColumns):
        # Columnar runs are zero-copy views into the window's arrays; the
        # boundary keys of all slices come from two gathers.
        runs = [
            sorted_events[start:end] for start, end in zip(boundaries, ends)
        ]
        first_keys = sorted_events.keys_at(boundaries)
        last_keys = sorted_events.keys_at([end - 1 for end in ends])
    else:
        runs = [
            tuple(sorted_events[start:end])
            for start, end in zip(boundaries, ends)
        ]
        first_keys = [run[0].key for run in runs]
        last_keys = [run[-1].key for run in runs]

    n_slices = len(runs)
    synopses = tuple(
        SliceSynopsis(
            first_key=first_key,
            last_key=last_key,
            count=end - start,
            node_id=node_id,
            slice_index=index,
            n_slices=n_slices,
        )
        for index, (start, end, first_key, last_key) in enumerate(
            zip(boundaries, ends, first_keys, last_keys)
        )
    )
    return SlicedWindow(node_id=node_id, runs=tuple(runs), synopses=synopses)
