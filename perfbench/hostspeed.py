"""Host speed reference: a fixed workload timed between repeats.

The benchmark runs on a few cores of a shared host.  Other tenants' load
changes how fast this process runs by up to about 40 % over seconds to
minutes, and CPU time moves with wall time, because the slowdown comes
from shared cores and caches, not from waiting.  Ten runs of the same code
can therefore spread further than any bound a regression check can use.

A reference workload that never touches the program is timed before and
after every repeat.  Its three components mirror what the program spends
its time on: interpreter arithmetic, small-object allocation with a keyed
sort, and numpy.  A reference's *slowdown* is the geometric mean, over the
components, of measured time over nominal time; a repeat's slowdown is
the mean of the references just before and just after it.  ``run.py``
divides compute-bound times by it, which reports them at the host speed
where the reference takes its nominal time.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

#: Timed runs of each component per reference; the median is kept.
RUNS = 5

_ARRAY = np.random.default_rng(0).random(300_000)


class _Point:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def _arithmetic() -> None:
    total = 0
    for i in range(50_000):
        total += i * i % 7


def _objects() -> None:
    points = [_Point(i, float(-i)) for i in range(30_000)]
    points.sort(key=lambda point: point.value)


def _numpy() -> None:
    np.sort(_ARRAY)


#: Component → (function, nominal seconds).  The nominal times are the
#: components' medians over five minutes on the 2-vCPU Xeon VM (2.1 GHz,
#: shared host) the benchmark was written on; they fix the scale only.
COMPONENTS = {
    "arithmetic": (_arithmetic, 0.00433),
    "objects": (_objects, 0.0172),
    "numpy": (_numpy, 0.00264),
}


def slowdown() -> float:
    """Time the reference once; > 1 means the host runs slower than nominal."""
    gc.collect()
    logs = []
    for function, nominal in COMPONENTS.values():
        runs = []
        for _ in range(RUNS):
            began = time.perf_counter()
            function()
            runs.append(time.perf_counter() - began)
        logs.append(math.log(statistics.median(runs) / nominal))
    return math.exp(sum(logs) / len(logs))
