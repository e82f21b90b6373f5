"""The pending-event store for :class:`~repro.sim.engine.SimulationEngine`.

The engine's determinism contract — events fire in ``(time, sequence)``
order — is carried by one structure: :class:`HeapScheduler`, which keeps
plain ``(time, sequence, callback, payload)`` tuples in two places.  What
callbacks schedule one at a time — messages in flight, releases — goes into a
binary heap: O(log n) push/pop, arbitrary timestamps, every comparison in C.
What is loaded in bulk — a workload's arrivals — stays a descending-sorted
list *beside* the heap and is popped from its end, so the heap is only as
deep as what is in flight (at most one entry per node for the paper's
protocol) however many arrivals are queued.

The scheduler owns its *drain loop*: the tight pop-and-dispatch loop that
:meth:`SimulationEngine.run` delegates to, kept next to the storage so it
runs without any per-event virtual dispatch.  It fires the earlier of the
run's tail and the heap's head, compared as whole tuples exactly as the heap
compares them.  Every entry is dispatched on its own; a same-tick run of
equal-time entries is just that loop back to back.

``scheduler="auto"`` and ``"heap"`` both name this store: committed
``experiment-spec/v1`` files and sweep shards carry the key, so the field
stays accepted though it no longer selects anything.  ``benchmarks/README.md``
("Why there is one scheduler", "Why the queue holds one kind of entry",
"Why bulk-loaded arrivals are not in the heap") holds the A/B that retired
the bucket ring, the audit that retired the cancellable event and the A/B
that took the arrivals out of the heap.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.exceptions import SchedulingError

#: Spellings accepted wherever a ``scheduler`` field survives (specs, the
#: driver, :func:`make_scheduler`); both mean :class:`HeapScheduler`.
SCHEDULER_MODES = ("auto", "heap")


class HeapScheduler:
    """A heap of in-flight entries beside a sorted run of bulk-loaded ones,
    drained together in ``(time, sequence)`` order.

    Every entry is a ``(time, sequence, callback, payload)`` tuple.  The
    engine owns the clock and the sequence counter; the scheduler owns
    storage and the drain loop.  Every comparison happens in C because
    entries are plain tuples with unique sequence numbers, and the push the
    engine binds is ``partial(heappush, entries)`` — no Python frame per
    insert.  Bulk loads (:meth:`push_bulk`) never enter the heap: they are
    kept as one list sorted descending, so the next one due is ``run[-1]``
    and firing it is a ``list.pop()`` that frees the entry.

    :meth:`drain` is the pop-and-dispatch loop and returns the number of
    events processed.  It honors the engine's ``_stopped`` flag after every
    callback, a ``budget`` of -1 meaning unlimited, and ``until`` as an
    inclusive time horizon (events scheduled strictly after ``until`` stay
    queued and the clock advances to ``until``), and updates ``engine._now``
    and ``engine._processed``.  Heap and run both live on the scheduler, so
    a drain picks up where the last one stopped.
    """

    #: Short name recorded in benchmark labels and obs gauges.
    kind = "heap"

    __slots__ = ("_engine", "_entries", "_run")

    def __init__(self) -> None:
        self._entries: List[Tuple] = []
        self._run: List[Tuple] = []

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
        do not pay a Python call per entry, nor a heap level per event while
        they wait.  ``entries`` is sorted in place and not kept.

        Raises:
            SchedulingError: if the earliest entry is before the engine's
                ``now``; nothing is stored.
        """
        # Timsort makes the arrival-ordered load the driver passes O(n) (one
        # strictly ascending run, reversed); any other order is still right.
        entries.sort(reverse=True)
        if entries and entries[-1][0] < self._engine._now:
            raise SchedulingError(
                f"cannot schedule event at {entries[-1][0]} before current "
                f"time {self._engine._now}"
            )
        # In place: a drain in progress holds this list.
        run = self._run
        run.extend(entries)
        if len(run) > len(entries):
            # An earlier load is still live: merge (two runs to timsort).
            run.sort(reverse=True)

    def __len__(self) -> int:
        """Entries stored, heap and run together."""
        return len(self._entries) + len(self._run)

    def drain(self, until: Optional[float], budget: int) -> int:
        engine = self._engine
        heap = self._entries
        run = self._run
        pop = heappop
        processed = 0
        try:
            if until is None:
                # Common case: no time horizon, so nothing is peeked but
                # the run's tail against the heap's head while a run is
                # live, and nothing at all once it is spent.
                while True:
                    while run:
                        if engine._stopped or processed == budget:
                            return processed
                        # Whole tuples, as the heap compares them: an entry
                        # pushed before a bulk load at an equal time has the
                        # lower sequence and fires first.
                        if heap and heap[0] < run[-1]:
                            time, _sequence, callback, payload = pop(heap)
                        else:
                            time, _sequence, callback, payload = run.pop()
                        engine._now = time
                        callback(payload)
                        processed += 1
                    while heap:
                        if engine._stopped or processed == budget:
                            return processed
                        time, _sequence, callback, payload = pop(heap)
                        engine._now = time
                        callback(payload)
                        processed += 1
                        if run:
                            # The callback bulk-loaded (a streaming loader).
                            break
                    else:
                        return processed
            while heap or run:
                if engine._stopped or processed == budget:
                    return processed
                from_heap = not run or (heap and heap[0] < run[-1])
                if (heap[0] if from_heap else run[-1])[0] > until:
                    break
                time, _sequence, callback, payload = (
                    pop(heap) if from_heap else run.pop()
                )
                engine._now = time
                callback(payload)
                processed += 1
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

