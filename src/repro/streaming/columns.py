"""Columnar event batches: the live hot path's data layout.

An :class:`EventColumns` holds one batch of events as parallel columns
(value f64, timestamp u32, node_id u32, seq u32) instead of per-event
:class:`~repro.streaming.events.Event` objects.  It is built zero-copy
straight off the wire (the 20-byte-stride event array of an event-batch
frame *is* the columnar layout), flows through the stream and local
servers into :class:`~repro.core.sorted_window.SortedLocalWindow`, and is
sorted, merged, sliced and re-encoded without materializing objects.
Events only become :class:`Event` instances at the columnar boundary —
element access, iteration, and the operators' cold fallback paths — which
is exactly where the hot-path lint allows construction.

Columns are views into one structured ndarray with the exact wire dtype
(:data:`EVENT_DTYPE`), so decode is ``np.frombuffer`` and encode is
``tobytes`` — no per-event work at all.  Sorting is one ``np.argsort`` of
the value column; only when two values tie does a stable three-key
``np.lexsort`` over the total-order key decide.

**Bit-identity contract.**  Every operation here produces *exactly* the
sequence the object path produces:

* The total-order key ``(value, node_id, seq)`` is strict (node_id/seq
  pairs are unique), so for NaN-free data any correct sort yields the one
  sorted permutation, and a *stable* sort over ``run ++ buffer`` equals
  the object path's "sort buffer, then merge with run priority on ties"
  even if keys ever collide.  When no two values compare equal, the key
  order is the value order and its sorted permutation is unique, so the
  value ``argsort`` (not stable) yields it.  When two do — a duplicate,
  ``0.0`` against ``-0.0``, a repeated infinity — the stable
  ``np.lexsort`` over the whole key runs instead, as the tie rule.
* NaN values break comparison sorts deterministically-but-arbitrarily;
  numpy's sorts would instead push NaNs last, diverging from the object
  path.  Batches containing NaN therefore fall back to a comparison
  mirror — index sort with the same key tuples plus the same two-pointer
  merge — which performs the identical comparisons in the identical
  order, reproducing the object path's permutation bit for bit.
* The root's merge of fetched candidate runs (:func:`merge_sorted_runs`)
  follows the same rule: the same value sort with the lexsort tie rule
  over the concatenated runs when they are NaN-free, and otherwise
  nothing — the calculation step then runs its ``heapq`` merge over
  event objects.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import CodecError
from repro.runtime import wire
from repro.streaming.events import Event

__all__ = [
    "EVENT_DTYPE",
    "EventColumns",
    "concat_columns",
    "merge_runs",
    "merge_sorted_runs",
]

#: The wire layout of one event as a numpy structured dtype.  Packed (no
#: padding), little-endian — ``frombuffer`` of an event-batch payload and
#: ``tobytes`` of a batch are byte-identical to ``struct`` with
#: :data:`repro.runtime.wire.EVENT`.
EVENT_DTYPE = np.dtype(
    [
        ("value", "<f8"),
        ("timestamp", "<u4"),
        ("node_id", "<u4"),
        ("seq", "<u4"),
    ]
)
assert EVENT_DTYPE.itemsize == wire.EVENT_WIRE_BYTES


def _batch_struct(n: int) -> struct.Struct:
    return struct.Struct("<" + "dIII" * n)


class EventColumns:
    """One immutable batch of events in columnar form.

    Behaves as a read-only :class:`Sequence` of :class:`Event` — ``len``,
    integer indexing (materializes one event), slicing with any step
    (returns columns), iteration, and ``==`` against any event sequence —
    while exposing the columns themselves to vectorized consumers.
    """

    __slots__ = ("_arr",)

    def __init__(self, arr) -> None:
        #: A structured ndarray of :data:`EVENT_DTYPE`.
        self._arr = arr

    # -- construction ---------------------------------------------------

    @classmethod
    def from_wire(
        cls, raw: "bytes | memoryview", count: "int | None" = None
    ) -> "EventColumns":
        """Zero-copy view over a wire event array (``n`` × 20 bytes).

        Raises:
            CodecError: If the byte length is not a multiple of the
                20-byte event stride, or disagrees with ``count``.
        """
        stride = wire.EVENT_WIRE_BYTES
        n_bytes = len(raw)
        if n_bytes % stride:
            raise CodecError(
                f"event array of {n_bytes} bytes is not a multiple of the "
                f"{stride}-byte event stride"
            )
        if count is not None and n_bytes != count * stride:
            raise CodecError(
                f"event array of {n_bytes} bytes does not hold the "
                f"announced {count} events ({count * stride} bytes)"
            )
        return cls(np.frombuffer(raw, dtype=EVENT_DTYPE))

    @classmethod
    def from_arrays(
        cls, values, timestamps, node_ids, seqs=None
    ) -> "EventColumns":
        """Build a batch from numpy arrays (the generator's fast path).

        ``node_ids`` may be a scalar (broadcast); ``seqs`` defaults to
        ``0..n-1``.  Values outside the wire ranges are the caller's bug,
        exactly as they are on the object encode path.
        """
        n = len(values)
        arr = np.empty(n, dtype=EVENT_DTYPE)
        arr["value"] = values
        arr["timestamp"] = timestamps
        arr["node_id"] = node_ids
        arr["seq"] = np.arange(n, dtype="<u4") if seqs is None else seqs
        return cls(arr)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventColumns":
        """Build a batch from event objects (tests and cold paths)."""
        events = list(events)
        packed = _batch_struct(len(events)).pack(
            *(
                field
                for ev in events
                for field in (ev.value, ev.timestamp, ev.node_id, ev.seq)
            )
        )
        return cls.from_wire(packed)

    def _take(self, indices) -> "EventColumns":
        return EventColumns(self._arr.take(indices))

    # -- sequence protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._arr)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventColumns(self._arr[index])
        rec = self._arr[index]
        return Event(
            value=float(rec["value"]),
            timestamp=int(rec["timestamp"]),
            node_id=int(rec["node_id"]),
            seq=int(rec["seq"]),
        )

    def __iter__(self) -> Iterator[Event]:
        for value, timestamp, node_id, seq in self._arr.tolist():
            yield Event(
                value=value, timestamp=timestamp, node_id=node_id, seq=seq
            )

    def __eq__(self, other) -> bool:
        """Elementwise event equality against any event sequence.

        Mirrors object semantics exactly — a NaN value compares unequal
        to itself here just as two ``Event`` dataclasses with NaN values
        do.  Also invoked *reflected* when a message built with a tuple
        of events is compared to its decoded, columnar twin.
        """
        if other is self:
            return True
        if isinstance(other, (EventColumns, tuple, list)):
            if len(other) != len(self):
                return False
            return all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to the hash of the equivalent tuple of events, so a
        # frozen message hashes identically whichever form it carries.
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"EventColumns(n={len(self)})"

    # -- columns --------------------------------------------------------

    @property
    def values(self):
        """The value column (f64)."""
        return self._arr["value"]

    @property
    def timestamps(self):
        """The event-time column (u32 milliseconds)."""
        return self._arr["timestamp"]

    @property
    def node_ids(self):
        """The producing-node column (u32)."""
        return self._arr["node_id"]

    @property
    def seqs(self):
        """The per-node sequence column (u32)."""
        return self._arr["seq"]

    # -- scalar accessors (exact Python types, for synopsis keys) -------

    def keys_at(self, indices) -> list[tuple[float, int, int]]:
        """The strict total-order keys of the events at ``indices``, as
        pure floats and ints — byte-identical to ``Event.key`` on the
        object path.  One gather and one ``tolist`` for all of them."""
        return [
            (value, node_id, seq)
            for value, _, node_id, seq in self._arr.take(indices).tolist()
        ]

    def timestamp_at(self, index: int) -> int:
        return int(self._arr[index]["timestamp"])

    def min_timestamp(self) -> int:
        return int(self._arr["timestamp"].min())

    def max_timestamp(self) -> int:
        return int(self._arr["timestamp"].max())

    # -- wire -----------------------------------------------------------

    def to_wire(self) -> bytes:
        """The batch's wire event array — byte-identical to packing each
        event with :data:`repro.runtime.wire.EVENT` in order."""
        return np.ascontiguousarray(self._arr).tobytes()

    # -- sorting --------------------------------------------------------

    def _keys(self) -> list[tuple[float, int, int]]:
        """All total-order keys as pure-Python tuples, in batch order."""
        return [
            (value, node_id, seq)
            for value, _, node_id, seq in self._arr.tolist()
        ]

    def has_nan(self) -> bool:
        return bool(np.isnan(self._arr["value"]).any())


def concat_columns(chunks: Sequence[EventColumns]) -> EventColumns:
    """Concatenate batches in order."""
    if len(chunks) == 1:
        return chunks[0]
    if not chunks:
        return EventColumns.from_wire(b"")
    # Concatenating the raw bytes skips numpy's field-by-field copy of
    # structured arrays, which costs ~30x more on a window's chunks.
    raw = [np.ascontiguousarray(chunk._arr).view(np.uint8) for chunk in chunks]
    return EventColumns(np.concatenate(raw).view(EVENT_DTYPE))


def _merge_comparison_mirror(
    run: "EventColumns | None", pending: EventColumns
) -> EventColumns:
    """The object path's exact algorithm on columns.

    Stable index sort of the pending batch by key tuple (the same Timsort
    comparisons ``list.sort(key=event_key)`` performs), then the same
    two-pointer merge with run priority on ``<=``.  Used whenever NaN
    values make comparison order the contract.

    The object path's append-only early-out (whole batch lands after the
    run) is mirrored too — with a NaN mid-run it is *not* equivalent to
    the merge loop, which dumps the rest of the batch the moment it
    reaches the incomparable key, so skipping it would reorder.
    """
    pending_keys = pending._keys()
    order = sorted(range(len(pending_keys)), key=pending_keys.__getitem__)
    if run is None or not len(run):
        return pending._take(order)
    run_keys = run._keys()
    n_run, n_pending = len(run_keys), len(order)
    if run_keys[-1] <= pending_keys[order[0]]:
        return concat_columns([run, pending._take(order)])
    merged: list[int] = []  # indices into run ++ pending
    i = j = 0
    while i < n_run and j < n_pending:
        if run_keys[i] <= pending_keys[order[j]]:
            merged.append(i)
            i += 1
        else:
            merged.append(n_run + order[j])
            j += 1
    merged.extend(range(i, n_run))
    merged.extend(n_run + order[k] for k in range(j, n_pending))
    return concat_columns([run, pending])._take(merged)


def _key_sorted(arr) -> EventColumns:
    """The stable sort of a NaN-free batch array by ``(value, node_id, seq)``.

    One ``argsort`` of the value column decides the order whenever no two
    values compare equal: the key order is then the value order, whose
    sorted permutation is unique, so stability cannot matter.  Only a tie
    (a duplicate value, ``0.0``/``-0.0``, a repeated infinity) pays for
    the stable three-key ``lexsort``.
    """
    values = np.ascontiguousarray(arr["value"])
    order = np.argsort(values)
    ranked = values[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.lexsort((arr["seq"], arr["node_id"], values))
    return EventColumns(arr.take(order))


def merge_runs(
    run: "EventColumns | None", pending: EventColumns
) -> EventColumns:
    """Sort ``pending`` and merge it into the sorted ``run``.

    Bit-identical to the object path (see the module docstring): one sort
    of ``run ++ pending`` when no value is NaN, the comparison mirror
    otherwise.
    """
    full = pending if run is None or not len(run) else concat_columns(
        [run, pending]
    )
    if not full.has_nan():
        return _key_sorted(full._arr)
    return _merge_comparison_mirror(run, pending)


def merge_sorted_runs(
    runs: Sequence[object],
) -> "tuple[EventColumns, Event | None] | None":
    """Merge runs that are each already sorted, with one sort.

    The calculation step's columnar path: the root's fetched candidate
    slices concatenate in arrival order, and their sort by ``(value,
    node_id, seq)`` equals the object path's ``heapq.merge`` (with unique
    keys the order is unique; equal keys go to the earlier run in both,
    through the stable tie fallback).  Returns ``None`` whenever that
    equivalence is not guaranteed — no runs, a run that is not a
    columnar batch, or a NaN value, whose comparison order only the
    object merge reproduces — so the caller merges event objects instead.

    Returns:
        ``(merged, None)`` when every run is sorted by the key.  Otherwise
        ``(concatenated, misplaced)``: the runs left unmerged and the first
        event that is out of order within its run — the same event the
        object path's sortedness check stops at.
    """
    if not runs or not all(isinstance(run, EventColumns) for run in runs):
        return None
    full = concat_columns(runs)
    if full.has_nan():
        return None
    arr = full._arr
    values, node_ids, seqs = arr["value"], arr["node_id"], arr["seq"]
    descending = (values[:-1] > values[1:]) | (
        (values[:-1] == values[1:])
        & (
            (node_ids[:-1] > node_ids[1:])
            | ((node_ids[:-1] == node_ids[1:]) & (seqs[:-1] > seqs[1:]))
        )
    )
    # Pairs that straddle two runs are not ordered by the protocol.
    ends = np.cumsum([len(run) for run in runs])[:-1]
    descending[ends[(ends > 0) & (ends < len(arr))] - 1] = False
    if descending.any():
        return full, full[int(descending.argmax()) + 1]
    return _key_sorted(arr), None
