"""The pending-event store for :class:`~repro.sim.engine.SimulationEngine`.

The engine's determinism contract — events fire in ``(time, sequence)``
order — is carried by one structure: :class:`HeapScheduler`, which keeps
plain ``(time, sequence, callback, payload)`` tuples in three places.  What
callbacks schedule one at a time at arbitrary times — releases, loaders,
faults, messages under a non-constant latency — goes into a binary heap:
O(log n) push/pop, every comparison in C.  What is loaded in bulk — a
workload's arrivals — stays a descending-sorted list *beside* the heap and
is popped from its end.  What a constant-latency network sends waits in a
FIFO lane (a ``deque``): each delivery is due at ``now + d`` with ``now``
never decreasing and the sequence always growing, so the lane is sorted by
construction and both ends are O(1).  One network per engine owns the lane
(:meth:`HeapScheduler.claim_lane`); a second, whose ``d`` may differ, uses
the heap.

The scheduler owns its *drain loop*: the tight pop-and-dispatch loop that
:meth:`SimulationEngine.run` delegates to, kept next to the storage so it
runs without any per-event virtual dispatch.  It fires the smallest of the
lane's head, the heap's head and the run's tail, compared as whole tuples
exactly as one heap would compare them, so the order is the single heap's.
Every entry is dispatched on its own; a same-tick run of equal-time entries
is just that loop back to back.

``scheduler="auto"`` and ``"heap"`` both name this store: committed
``experiment-spec/v1`` files and sweep shards carry the key, so the field
stays accepted though it no longer selects anything.  ``benchmarks/README.md``
("Why there is one scheduler", "Why the queue holds one kind of entry",
"Why bulk-loaded arrivals are not in the heap", "Why messages are not in the
heap") holds the A/B that retired the bucket ring, the audit that retired the
cancellable event and the A/Bs that took the arrivals and the messages out of
the heap.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from math import inf
from typing import Callable, Deque, List, Optional, Tuple

from repro.exceptions import SchedulingError

#: Spellings accepted wherever a ``scheduler`` field survives (specs, the
#: driver, :func:`make_scheduler`); both mean :class:`HeapScheduler`.
SCHEDULER_MODES = ("auto", "heap")


class HeapScheduler:
    """A heap, a sorted run of bulk-loaded entries and a FIFO lane of
    constant-latency deliveries, drained together in ``(time, sequence)``
    order.

    Every entry is a ``(time, sequence, callback, payload)`` tuple.  The
    engine owns the clock and the sequence counter; the scheduler owns
    storage and the drain loop.  Every comparison happens in C because
    entries are plain tuples with unique sequence numbers, and the push the
    engine binds is ``partial(heappush, entries)`` — no Python frame per
    insert.  Bulk loads (:meth:`push_bulk`) never enter the heap: they are
    kept as one list sorted descending, so the next one due is ``run[-1]``
    and firing it is a ``list.pop()`` that frees the entry.  The lane's one
    owner (:meth:`claim_lane`) appends with the deque's own ``append``.

    :meth:`drain` is the pop-and-dispatch loop and returns the number of
    events processed.  It honors the engine's ``_stopped`` flag after every
    callback, a ``budget`` of -1 meaning unlimited, and ``until`` as an
    inclusive time horizon (events scheduled strictly after ``until`` stay
    queued and the clock advances to ``until``), and updates ``engine._now``
    and ``engine._processed``.  All three live on the scheduler, so a drain
    picks up where the last one stopped.
    """

    #: Short name recorded in benchmark labels and obs gauges.
    kind = "heap"

    __slots__ = ("_engine", "_entries", "_run", "_lane", "_lane_claimed")

    def __init__(self) -> None:
        self._entries: List[Tuple] = []
        self._run: List[Tuple] = []
        self._lane: Deque[Tuple] = deque()
        self._lane_claimed = False

    def bind(self, engine) -> None:
        """Attach the engine whose clock/counters :meth:`drain` updates."""
        self._engine = engine

    def push_callable(self) -> Callable[[Tuple], None]:
        """The callable that inserts one entry (sequence numbers arrive
        monotone).  The engine calls this once and stores the result."""
        # C partial calling the C heappush: frame-free.
        return partial(heappush, self._entries)

    def claim_lane(self) -> Optional[Callable[[Tuple], None]]:
        """The FIFO lane's ``append`` for its one owner, ``None`` after that.

        The owner must push entries that are due in push order, each no
        earlier than the last: a constant-latency network, whose deliveries
        are ``now + d`` with ``now`` never decreasing.  A second such network
        may have another ``d``, so it gets ``None`` and uses the heap.
        """
        if self._lane_claimed:
            return None
        self._lane_claimed = True
        return self._lane.append

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
        """Entries stored, heap, run and lane together."""
        return len(self._entries) + len(self._run) + len(self._lane)

    def drain(self, until: Optional[float], budget: int) -> int:
        engine = self._engine
        heap = self._entries
        run = self._run
        lane = self._lane
        take_heap = partial(heappop, heap)
        take_run = run.pop
        take_lane = lane.popleft
        horizon = inf if until is None else until
        processed = 0
        try:
            while True:
                # The smallest of the three heads, compared as whole tuples
                # exactly as one heap would compare them.
                if lane:
                    entry = lane[0]
                    take = take_lane
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        take = take_heap
                elif heap:
                    entry = heap[0]
                    take = take_heap
                elif run:
                    entry = run[-1]
                    take = take_run
                else:
                    break
                if run and run[-1] < entry:
                    entry = run[-1]
                    take = take_run
                if engine._stopped or processed == budget:
                    return processed
                time, _sequence, callback, payload = entry
                if time > horizon:
                    break
                take()
                engine._now = time
                callback(payload)
                processed += 1
            if until is not None and until > engine._now:
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

