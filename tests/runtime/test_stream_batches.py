"""``batches_for``: the stream replay's window-respecting batch split.

Each case gives the input timestamps and the expected batches literally,
as the timestamps and sequence numbers each batch holds.  A batch breaks
wherever ``timestamp // window_length_ms`` changes, and each run between
breaks is chunked by ``batch_size``; unsorted input is split the same way,
so a window visited twice yields two batches.
"""

import pytest

from repro.runtime.servers import batches_for
from repro.streaming.columns import EventColumns
from repro.streaming.events import Event

CASES = {
    "sorted-across-windows": (
        [0, 5, 9, 10, 15, 30, 31], 10, 100,
        [[0, 5, 9], [10, 15], [30, 31]],
        [[0, 1, 2], [3, 4], [5, 6]],
    ),
    "size-cap-inside-a-window": (
        [0, 1, 2, 3, 4, 5, 6, 12, 13], 10, 3,
        [[0, 1, 2], [3, 4, 5], [6], [12, 13]],
        [[0, 1, 2], [3, 4, 5], [6], [7, 8]],
    ),
    "unsorted-jumping-windows": (
        [5, 15, 7, 8, 9, 25, 21, 3, 4, 14], 10, 2,
        [[5], [15], [7, 8], [9], [25, 21], [3, 4], [14]],
        [[0], [1], [2, 3], [4], [5, 6], [7, 8], [9]],
    ),
    "single-event": ([42], 10, 4, [[42]], [[0]]),
    "empty": ([], 10, 4, [], []),
}


@pytest.mark.parametrize(
    "timestamps, length, size, expected_ts, expected_seqs",
    list(CASES.values()),
    ids=list(CASES),
)
def test_batch_boundaries(timestamps, length, size, expected_ts, expected_seqs):
    events = EventColumns.from_events(
        Event(float(seq), ts, 1, seq) for seq, ts in enumerate(timestamps)
    )
    batches = batches_for(events, length, size)
    assert all(isinstance(batch, EventColumns) for batch in batches)
    assert [batch.timestamps.tolist() for batch in batches] == expected_ts
    assert [batch.seqs.tolist() for batch in batches] == expected_seqs
