"""The pending-event store for :class:`~repro.sim.engine.SimulationEngine`.

The engine's determinism contract — events fire in ``(time, sequence)``
order — is carried by one structure: :class:`HeapScheduler`, which keeps
plain tuples in three places.  What callbacks schedule one at a time at
arbitrary times — releases, faults, messages a network watches on
delivery — goes into a binary heap as ``(time, sequence, callback,
payload)``: O(log n) push/pop, every comparison in C.  What is loaded in
bulk — a workload's arrivals — waits *beside* the heap as an iterator over
the caller's own columns (a schedule's arrival times and nodes, lists or
lazily repeated rounds), built a chunk at a time, in the same form, into a
descending list popped from its end.  What a constant-latency
network sends waits in a FIFO lane (a ``deque``) as a ready-to-fire
three-argument call, ``(time, sequence, fn, target, sender, message)``: each
delivery is due at ``now + d`` with ``now`` never decreasing and the
sequence always growing, so the lane is sorted by construction and both
ends are O(1).  One network per engine owns the lane
(:meth:`HeapScheduler.claim_lane`); a second, whose ``d`` may differ, uses
the heap.

The scheduler owns its *drain loop*: the tight pop-and-dispatch loop that
:meth:`SimulationEngine.run` delegates to, kept next to the storage so it
runs without any per-event virtual dispatch.  It fires the smallest of the
lane's head, the heap's head and the chunk's tail, compared as whole tuples
exactly as one heap would compare them, so the order is the single heap's.
Every entry is dispatched on its own; a same-tick run of equal-time entries
is just that loop back to back.

``scheduler="auto"`` and ``"heap"`` both name this store: committed
``experiment-spec/v1`` files and sweep shards carry the key, so the field
stays accepted though it no longer selects anything.  ``benchmarks/README.md``
("Why there is one scheduler", "Why the queue holds one kind of entry",
"Why bulk-loaded arrivals are not in the heap", "Why messages are not in the
heap", "Why there are two entry forms") holds the A/B that retired the bucket
ring, the audit that retired the cancellable event and the A/Bs that took the
arrivals and the messages out of the heap and the frame off a delivery.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from itertools import chain, islice
from math import inf
from typing import Callable, Deque, Iterator, List, Optional, Tuple

from repro.exceptions import SchedulingError

#: Spellings accepted wherever a ``scheduler`` field survives (specs, the
#: driver, :func:`make_scheduler`); both mean :class:`HeapScheduler`.
SCHEDULER_MODES = ("auto", "heap")

#: Entries of a bulk load materialised at a time (:meth:`HeapScheduler.push_bulk`).
BULK_CHUNK = 2048


class HeapScheduler:
    """A heap, a bulk load's cursor and a FIFO lane of constant-latency
    deliveries, drained together in ``(time, sequence)`` order.

    A heap or bulk entry is a ``(time, sequence, callback, payload)`` tuple,
    fired as ``callback(payload)``; a lane entry is ``(time, sequence, fn,
    target, sender, message)``, fired as ``fn(target, sender, message)``.  The
    engine owns the clock and the sequence counter; the scheduler owns
    storage and the drain loop.  Every comparison happens in C because
    entries are plain tuples with unique sequence numbers, and the push the
    engine binds is ``partial(heappush, entries)`` — no Python frame per
    insert.  A bulk load (:meth:`push_bulk`) never enters the heap: it is an
    ascending iterator, of which :data:`BULK_CHUNK` entries at a time wait in
    one list sorted descending, so the next one due is ``run[-1]`` and firing
    it is a ``list.pop()`` that frees the entry; the list is refilled as its
    last entry is taken, so it is empty only when the load is spent.  The
    lane's one owner (:meth:`claim_lane`) appends with the deque's own
    ``append``; a comparison never reaches the third element of either form.

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

    __slots__ = ("_engine", "_entries", "_run", "_cursor", "_unloaded", "_lane", "_lane_claimed")

    def __init__(self) -> None:
        self._entries: List[Tuple] = []
        self._run: List[Tuple] = []  # the bulk load's materialised chunk
        self._cursor: Iterator[Tuple] = iter(())  # the rest of it
        self._unloaded = 0  # entries still behind the cursor
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

    def claim_lane(self) -> Optional[Deque[Tuple]]:
        """The FIFO lane for its one owner, ``None`` after that.

        The owner appends ``(time, sequence, fn, target, sender, message)``
        entries, which :meth:`drain` fires as ``fn(target, sender, message)``
        — a call resolved in full when it was queued.  They must be due in
        push order, each no earlier than the last: a constant-latency
        network, whose deliveries are ``now + d`` with ``now`` never
        decreasing.  A second such network may have another ``d``, so it
        gets ``None`` and uses the heap.  ``len`` of the lane is what its
        owner has in flight.
        """
        if self._lane_claimed:
            return None
        self._lane_claimed = True
        return self._lane

    def push_bulk(self, entries: Iterator[Tuple], count: int) -> None:
        """Take over ``entries``, an ascending iterator of ``count`` entries
        (same ordering contract as one push each), as the bulk load.

        The engine's batch entry point (``schedule_lite_bulk``) uses this so
        a workload's arrivals pay no Python call per entry, no heap level per
        event while they wait, and no copy: only :data:`BULK_CHUNK` entries
        are built ahead of the drain, so ``entries`` — and the columns it is
        zipped from — are drawn only as the drain reaches them.  The engine
        checks the load.
        """
        run = self._run
        if run:
            # An earlier load is still live: merge the two (two runs to
            # timsort), materialised — the rare path.
            count += len(run) + self._unloaded
            entries = iter(sorted(chain(reversed(run), self._cursor, entries)))
            run.clear()  # in place: a drain in progress holds this list
        self._cursor = entries
        self._unloaded = count
        self._refill()

    def _refill(self) -> None:
        """Materialise the load's next chunk into the (empty) run."""
        run = self._run
        run.extend(islice(self._cursor, BULK_CHUNK))
        if run:
            run.reverse()
            self._unloaded -= len(run)
        else:  # spent: let go of the caller's sequences
            self._cursor = iter(())

    def __len__(self) -> int:
        """Entries stored, heap, bulk load and lane together."""
        return len(self._entries) + len(self._run) + self._unloaded + len(self._lane)

    def drain(self, until: Optional[float], budget: int) -> int:
        engine = self._engine
        heap = self._entries
        run = self._run
        lane = self._lane
        take_heap = partial(heappop, heap)
        take_run = run.pop
        refill = self._refill
        take_lane = lane.popleft
        horizon = inf if until is None else until
        processed = 0
        try:
            while True:
                # The smallest of the three heads, compared as whole tuples
                # exactly as one heap would compare them.
                if lane:
                    entry = lane[0]
                    if not (heap and heap[0] < entry or run and run[-1] < entry):
                        if engine._stopped or processed == budget:
                            return processed
                        time, _sequence, fn, target, sender, message = entry
                        if time > horizon:
                            break
                        take_lane()
                        engine._now = time
                        fn(target, sender, message)
                        processed += 1
                        continue
                if heap:
                    entry = heap[0]
                    take = take_heap
                    if run and run[-1] < entry:
                        entry = run[-1]
                        take = take_run
                elif run:
                    entry = run[-1]
                    take = take_run
                else:
                    break
                if engine._stopped or processed == budget:
                    return processed
                time, _sequence, callback, payload = entry
                if time > horizon:
                    break
                take()
                if take is take_run and not run:
                    refill()
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

