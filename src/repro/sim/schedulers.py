"""The pending-event store for :class:`~repro.sim.engine.SimulationEngine`.

The engine's determinism contract — events fire in ``(time, sequence)``
order — is carried by one structure: :class:`HeapScheduler`, a binary heap
of plain ``(time, sequence, callback, payload)`` tuples.  O(log n) push/pop,
arbitrary timestamps, every comparison in C.

The scheduler owns its *drain loop*: the tight pop-and-dispatch loop that
:meth:`SimulationEngine.run` delegates to, kept next to the storage so it
runs without any per-event virtual dispatch.  Every entry is dispatched on
its own; a same-tick run of equal-time entries is just that loop back to back.

``scheduler="auto"`` and ``"heap"`` both name this store: committed
``experiment-spec/v1`` files and sweep shards carry the key, so the field
stays accepted though it no longer selects anything.  ``benchmarks/README.md``
("Why there is one scheduler", "Why the queue holds one kind of entry")
holds the A/B that retired the bucket ring and the audit that retired the
cancellable event.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.exceptions import SchedulingError

#: Spellings accepted wherever a ``scheduler`` field survives (specs, the
#: driver, :func:`make_scheduler`); both mean :class:`HeapScheduler`.
SCHEDULER_MODES = ("auto", "heap")


class HeapScheduler:
    """A binary heap of engine entries, drained in ``(time, sequence)`` order.

    Every entry is a ``(time, sequence, callback, payload)`` tuple.  The
    engine owns the clock and the sequence counter; the scheduler owns
    storage and the drain loop.  Every heap comparison happens in C because
    entries are plain tuples with unique sequence numbers, and the push the
    engine binds is ``partial(heappush, entries)`` — no Python frame per
    insert.

    :meth:`drain` is the pop-and-dispatch loop and returns the number of
    events processed.  It honors the engine's ``_stopped`` flag after every
    callback, a ``budget`` of -1 meaning unlimited, and ``until`` as an
    inclusive time horizon (events scheduled strictly after ``until`` stay
    queued and the clock advances to ``until``), and updates ``engine._now``
    and ``engine._processed``.
    """

    #: Short name recorded in benchmark labels and obs gauges.
    kind = "heap"

    __slots__ = ("_engine", "_entries")

    def __init__(self) -> None:
        self._entries: List[Tuple] = []

    def bind(self, engine) -> None:
        """Attach the engine whose clock/counters :meth:`drain` updates."""
        self._engine = engine

    def push_callable(self) -> Callable[[Tuple], None]:
        """The callable that inserts one entry (sequence numbers arrive
        monotone).  The engine calls this once and stores the result."""
        # C partial calling the C heappush: frame-free.
        return partial(heappush, self._entries)

    def push_bulk(self, entries: List[Tuple]) -> None:
        """Insert many entries in one call (same ordering contract as one push).

        The engine's batch entry point (``schedule_lite_bulk``) uses this so
        pre-scheduled workloads — thousands of arrivals loaded before a run —
        do not pay a Python call per entry.
        """
        # extend + heapify is O(n + m) against m pushes' O(m log n) — and
        # both steps run in C.
        lst = self._entries
        lst.extend(entries)
        heapify(lst)

    def __len__(self) -> int:
        """Entries stored."""
        return len(self._entries)

    def drain(self, until: Optional[float], budget: int) -> int:
        engine = self._engine
        heap = self._entries
        pop = heappop
        processed = 0
        try:
            if until is None:
                # Common case: no time horizon, so the head entry never has
                # to be peeked before committing to it.
                while heap:
                    if engine._stopped or processed == budget:
                        break
                    time, _sequence, callback, payload = pop(heap)
                    engine._now = time
                    callback(payload)
                    processed += 1
            else:
                while heap:
                    if engine._stopped or processed == budget:
                        break
                    if heap[0][0] > until:
                        if until > engine._now:
                            engine._now = until
                        break
                    time, _sequence, callback, payload = pop(heap)
                    engine._now = time
                    callback(payload)
                    processed += 1
                else:
                    if until > engine._now:
                        engine._now = until
        finally:
            engine._processed += processed
        return processed


def unknown_scheduler_message(kind: object) -> str:
    """Why ``kind`` is not a scheduler; names the ring's removal."""
    removed = " (the bucket-ring scheduler was removed)" if kind == "ring" else ""
    return f"unknown scheduler {kind!r}{removed}; known: {list(SCHEDULER_MODES)}"


def make_scheduler(kind: str = "auto", *, latency=None, workload=None) -> HeapScheduler:
    """A fresh :class:`HeapScheduler` for any of :data:`SCHEDULER_MODES`.

    ``latency`` and ``workload`` are accepted and ignored: callers written
    against the scenario-aware selection rule keep working.

    Raises:
        SchedulingError: for any other ``kind`` — including ``"ring"``, the
            bucket ring this module no longer has.
    """
    if kind not in SCHEDULER_MODES:
        raise SchedulingError(unknown_scheduler_message(kind))
    return HeapScheduler()

