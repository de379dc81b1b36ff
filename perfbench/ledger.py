"""Outside-in instrumentation of the live runtime.

Nothing under ``src/`` knows it is being measured: every probe here is a
wrapper installed on the attribute a caller actually resolves, and every
wrapper is removed again when the run returns.  A function imported with
``from X import f`` is looked up in the *importing* module's namespace, so
it is wrapped there (``repro.runtime.transport.encode_frame``, not
``repro.runtime.codec.encode_frame``); a wrapper on the defining module
would record zero calls.

Two layers of instrumentation exist:

* :class:`Probes` — always installed, O(1) per run, per root message or
  per batch.  It stamps the first event a local accepts, the moment each
  window's outcome appears at a root node, and each replayed batch's
  event-time end and offer time.  The end-to-end metrics come from these
  alone.
* :class:`Ledger` — installed only on traced runs.  It times every layer
  boundary listed in :data:`BOUNDARIES` and keeps *self* time: a
  boundary's elapsed time minus the part spent inside nested boundaries.
  Coroutine boundaries are timed per step (from resume to the next
  suspension), so time spent suspended on backpressure is never charged;
  with every node on one event loop the summed self time therefore cannot
  exceed the wall time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.core import root_node as _root_node
from repro.core.local_node import DemaLocalNode
from repro.core.root_node import DemaRootNode
from repro.mesh import relay as _relay
from repro.mesh import servers as _mesh_servers
from repro.mesh.relay import RelayServer
from repro.mesh.servers import MeshRootServer, PhasedStreamServer
from repro.runtime import servers as _servers
from repro.runtime import transport as _transport
from repro.runtime.servers import LocalServer, RootServer, StreamServer
from repro.runtime.transport import MemoryMessageStream, TcpMessageStream
from repro.streaming.columns import EventColumns

_clock = time.monotonic  # the event loop's clock: loop.time() is monotonic()
_cpu = time.process_time


class _Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Probes: the end-to-end metrics' only instrumentation.
# ----------------------------------------------------------------------


@dataclass
class BatchRecord:
    """One ``batches_for`` call: a stream's replay."""

    #: Event-time end (last timestamp) of every batch, in send order.
    last_ts: list[int] = field(default_factory=list)
    #: Loop time each batch was taken by the replay loop, i.e. offered.
    offered: list[float] = field(default_factory=list)


@dataclass
class Probes:
    """Per-run stamps gathered without touching any per-event path."""

    #: Windows the run must answer; the serving interval closes when the
    #: last of them has an outcome.
    expected_windows: int
    #: ``(clock, cpu, ledger self time so far)`` at the first event a
    #: local accepted and when the last expected outcome appeared.
    first_accept: tuple[float, float, float] | None = None
    all_done: tuple[float, float, float] | None = None
    #: Window start → loop time its outcome appeared at a root node.
    results: dict[int, float] = field(default_factory=dict)
    batches: list[BatchRecord] = field(default_factory=list)
    #: Summed ledger self time so far (zero on untraced runs).
    covered: Callable[[], float] = lambda: 0.0
    _patches: _Patches = field(default_factory=_Patches)

    def _stamp(self) -> tuple[float, float, float]:
        return _clock(), _cpu(), self.covered()

    def install(self) -> None:
        patches = self._patches
        probes = self

        ingest = DemaLocalNode.ingest

        def first_ingest(node, events, now):
            if probes.first_accept is None:
                probes.first_accept = probes._stamp()
            # One shot: the per-batch path pays nothing after this call.
            DemaLocalNode.ingest = ingest
            return ingest(node, events, now)

        patches.set(DemaLocalNode, "ingest", first_ingest)

        on_message = DemaRootNode.on_message

        def stamp_outcomes(node, message, now):
            before = len(node.outcomes)
            result = on_message(node, message, now)
            outcomes = node.outcomes
            if len(outcomes) > before:
                stamp = probes._stamp()
                for outcome in outcomes[before:]:
                    probes.results[outcome.window.start] = stamp[0]
                if len(probes.results) == probes.expected_windows:
                    probes.all_done = stamp
            return result

        patches.set(DemaRootNode, "on_message", stamp_outcomes)

        for module in (_servers, _mesh_servers):
            batches_for = module.batches_for

            def offered(events, window_length_ms, batch_size,
                        _batches_for=batches_for):
                record = BatchRecord()
                probes.batches.append(record)
                batches = _batches_for(events, window_length_ms, batch_size)
                return _offer(batches, record)

            patches.set(module, "batches_for", offered)

    def uninstall(self) -> None:
        self._patches.restore()


def _offer(batches, record: BatchRecord):
    """Yield ``batches`` while stamping when the replay takes each one."""
    last_ts = record.last_ts
    offered = record.offered
    for batch in batches:
        last_ts.append(
            batch.timestamp_at(-1)
            if isinstance(batch, EventColumns)
            else batch[-1].timestamp
        )
        offered.append(_clock())
        yield batch


# ----------------------------------------------------------------------
# Ledger: per-layer self time, traced runs only.
# ----------------------------------------------------------------------


#: Boundary → the (owner, attribute) pairs its callers resolve.  Owners
#: are modules for functions and classes for methods.  ``async`` marks
#: coroutine functions, which are timed per step.
BOUNDARIES: dict[str, tuple[bool, tuple[tuple[object, str], ...]]] = {
    "codec.encode": (False, ((_transport, "encode_frame"),)),
    "codec.decode": (False, ((_transport, "decode_body_traced"),)),
    "transport.send": (True, (
        (TcpMessageStream, "send"),
        (TcpMessageStream, "send_many"),
        (MemoryMessageStream, "send"),
        (MemoryMessageStream, "send_many"),
    )),
    "transport.recv": (True, (
        (TcpMessageStream, "recv"),
        (MemoryMessageStream, "recv"),
    )),
    "stream.replay": (True, (
        (StreamServer, "replay"),
        (PhasedStreamServer, "replay"),
    )),
    "host.serve": (True, (
        (LocalServer, "serve"),
        (RootServer, "serve"),
        (MeshRootServer, "serve"),
        (RelayServer, "serve"),
    )),
    "local.handle": (False, ((DemaLocalNode, "on_message"),)),
    "local.ingest": (False, ((DemaLocalNode, "ingest"),)),
    "local.seal_slice": (False, ((DemaLocalNode, "on_window_complete"),)),
    "root.handle": (False, ((DemaRootNode, "on_message"),)),
    "root.identify": (False, ((_root_node, "identify"),)),
    "root.calculate": (False, ((_root_node, "calculate_quantile"),)),
    "relay.combine": (False, (
        (_relay, "combine_synopses"),
        (_relay, "combine_runs"),
    )),
    "relay.explode": (False, (
        (_mesh_servers, "explode_synopses"),
        (_mesh_servers, "explode_runs"),
    )),
}


class Ledger:
    """Self time and call counts per boundary, plus the stage counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.ingest_events = 0
        self.candidate_events = 0
        #: Identification → calculation gap per window, seconds.
        self.fetch_waits: list[float] = []
        self._identified: dict[int, float] = {}
        #: One child-time accumulator per open timed region.
        self._stack: list[float] = []
        self._patches = _Patches()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for name, (is_async, targets) in BOUNDARIES.items():
            for owner, attribute in targets:
                if isinstance(owner, type) and attribute not in vars(owner):
                    continue  # inherited: already wrapped on the base class
                original = getattr(owner, attribute)
                hook = self._hook(name)
                wrapper = (
                    self._wrap_async(name, original, hook)
                    if is_async
                    else self._wrap_sync(name, original, hook)
                )
                self._patches.set(owner, attribute, wrapper)

    def uninstall(self) -> None:
        self._patches.restore()

    def _hook(self, name: str) -> Callable | None:
        """Counters observed at a boundary besides its time."""
        if name == "local.ingest":

            def count_ingest(args, result, entered) -> None:
                self.ingest_events += len(args[1])

            return count_ingest
        if name == "root.identify":

            def identified(args, result, entered) -> None:
                self.candidate_events += result.candidate_events
                self._identified[id(result.cut)] = _clock()

            return identified
        if name == "root.calculate":

            def calculated(args, result, entered) -> None:
                started = self._identified.pop(id(args[0]), None)
                if started is not None:
                    self.fetch_waits.append(entered - started)

            return calculated
        return None

    # -- timing ---------------------------------------------------------

    def _close(self, name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        stack = self._stack
        self.self_s[name] += elapsed - stack.pop()
        if stack:
            stack[-1] += elapsed

    def _wrap_sync(self, name: str, original: Callable, hook) -> Callable:
        ledger = self
        stack = self._stack
        calls = self.calls

        def timed(*args, **kwargs):
            calls[name] += 1
            entered = _clock() if hook is not None else 0.0
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                ledger._close(name, started)
            if hook is not None:
                hook(args, result, entered)
            return result

        return timed

    def _wrap_async(self, name: str, original: Callable, hook) -> Callable:
        ledger = self
        calls = self.calls

        def timed(*args, **kwargs):
            calls[name] += 1
            if hook is not None:
                hook(args, None, _clock())
            return _TimedAwait(ledger, name, original(*args, **kwargs))

        return timed

    # -- summaries ------------------------------------------------------

    def covered_s(self) -> float:
        """Summed self time of every boundary."""
        return sum(self.self_s.values())


class _TimedAwait:
    """Drive a coroutine, charging only its running steps to a boundary."""

    __slots__ = ("_ledger", "_name", "_coro")

    def __init__(self, ledger: Ledger, name: str, coro) -> None:
        self._ledger = ledger
        self._name = name
        self._coro = coro

    def __await__(self):
        ledger, name, coro = self._ledger, self._name, self._coro
        stack = ledger._stack
        value = None
        error: BaseException | None = None
        while True:
            stack.append(0.0)
            started = time.perf_counter()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                ledger._close(name, started)
                return stop.value
            except BaseException:
                ledger._close(name, started)
                raise
            ledger._close(name, started)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # cancellation, thrown into coro
                value = None
                error = exc


@contextlib.contextmanager
def instrumented(traced: bool, expected_windows: int):
    """Install the probes (and, when ``traced``, the ledger) for one run."""
    probes = Probes(expected_windows)
    ledger = Ledger() if traced else None
    if ledger is not None:
        probes.covered = ledger.covered_s
        ledger.install()
    probes.install()
    try:
        yield probes, ledger
    finally:
        probes.uninstall()
        if ledger is not None:
            ledger.uninstall()
