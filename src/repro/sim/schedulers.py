"""The pending-event store for :class:`~repro.sim.engine.SimulationEngine`.

The engine's determinism contract — events fire in ``(time, priority,
sequence)`` order — is carried by one structure: :class:`HeapScheduler`, a
binary heap of plain tuples.  O(log n) push/pop, arbitrary timestamps, every
comparison in C.

The scheduler owns its *drain loop*: the tight pop-and-dispatch loop that
:meth:`SimulationEngine.run` delegates to, kept next to the storage so it
runs without any per-event virtual dispatch.  Every entry is dispatched on
its own; a same-tick run of equal-time entries is just that loop back to back.

Cancelled events are tombstones, skipped (without advancing the clock) when
reached.  The store tracks a cancelled counter so the engine can trigger
:meth:`HeapScheduler.compact` when tombstones outnumber half the live entries
(see ``SimulationEngine._note_cancelled``).

``scheduler="auto"`` and ``"heap"`` both name this store: committed
``experiment-spec/v1`` files and sweep shards carry the key, so the field
stays accepted though it no longer selects anything.  ``benchmarks/README.md``
("Why there is one scheduler") holds the A/B that retired the bucket ring.
"""

from __future__ import annotations

from functools import partial
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.exceptions import SchedulingError

#: Spellings accepted wherever a ``scheduler`` field survives (specs, the
#: driver, :func:`make_scheduler`); both mean :class:`HeapScheduler`.
SCHEDULER_MODES = ("auto", "heap")

#: Compaction is skipped below this many tombstones: rebuilding a tiny queue
#: costs more than the tombstones could ever save.
MIN_TOMBSTONES_FOR_COMPACTION = 64


class HeapScheduler:
    """A binary heap of engine entries, drained in ``(time, priority,
    sequence)`` order.

    Entries are ``(time, priority, sequence, event)`` tuples or lite
    ``(time, priority, sequence, callback, payload)`` tuples.  The engine
    owns the clock and the sequence counter; the scheduler owns storage and
    the drain loop.  Every heap comparison happens in C because entries are
    plain tuples with unique sequence numbers, and the push the engine binds
    is ``partial(heappush, entries)`` — no Python frame per insert.

    :meth:`drain` is the pop-and-dispatch loop and returns the number of
    events processed.  It honors the engine's ``_stopped`` flag after every
    callback, a ``budget`` of -1 meaning unlimited, and ``until`` as an
    inclusive time horizon (events scheduled strictly after ``until`` stay
    queued and the clock advances to ``until``), and updates ``engine._now``
    and ``engine._processed``.
    """

    #: Short name recorded in benchmark labels and obs gauges.
    kind = "heap"

    __slots__ = ("_engine", "_entries", "_cancelled")

    def __init__(self) -> None:
        self._entries: List[Tuple] = []
        self._cancelled = 0

    def bind(self, engine) -> None:
        """Attach the engine whose clock/counters :meth:`drain` updates."""
        self._engine = engine

    def push(self, entry: Tuple) -> None:
        """Insert one entry.  Entries arrive with monotone sequence numbers."""
        heappush(self._entries, entry)

    def push_callable(self) -> Callable[[Tuple], None]:
        """The cheapest callable equivalent to :meth:`push`.

        The engine calls this once and stores the result.
        """
        # C partial calling the C heappush: frame-free.  compact() mutates
        # the entries list strictly in place, so the bound list stays valid.
        return partial(heappush, self._entries)

    def push_bulk(self, entries: List[Tuple]) -> None:
        """Insert many entries in one call (same ordering contract as push).

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
        """Entries stored, including cancelled tombstones."""
        return len(self._entries)

    def note_cancelled(self) -> None:
        """An entry somewhere in the store was tombstoned via ``cancel()``."""
        self._cancelled += 1

    @property
    def tombstones(self) -> int:
        """Cancelled entries still occupying storage."""
        return self._cancelled

    def compact(self) -> int:
        """Drop cancelled tombstones in place; returns how many were removed.

        Compaction can be triggered from inside an event callback, so the
        entries list a concurrently running drain loop holds must keep its
        identity.
        """
        entries = self._entries
        live = [e for e in entries if len(e) == 5 or not e[3].cancelled]
        removed = len(entries) - len(live)
        if removed:
            # In place: drain loops and the engine's bound push hold this
            # exact list object.
            entries[:] = live
            heapify(entries)
        self._cancelled -= removed
        return removed

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
                    entry = pop(heap)
                    if len(entry) == 5:
                        # Lite entry: (time, priority, seq, callback, payload).
                        engine._now = entry[0]
                        entry[3](entry[4])
                        processed += 1
                        continue
                    event = entry[3]
                    if event.cancelled:
                        # Tombstone: discard without touching the clock.
                        self._cancelled -= 1
                        continue
                    event.owner = None  # fired: late cancel() is a no-op
                    engine._now = entry[0]
                    event.callback(event)
                    processed += 1
            else:
                while heap:
                    if engine._stopped or processed == budget:
                        break
                    entry = heap[0]
                    if entry[0] > until:
                        if until > engine._now:
                            engine._now = until
                        break
                    pop(heap)
                    if len(entry) == 5:
                        engine._now = entry[0]
                        entry[3](entry[4])
                        processed += 1
                        continue
                    event = entry[3]
                    if event.cancelled:
                        self._cancelled -= 1
                        continue
                    event.owner = None
                    engine._now = entry[0]
                    event.callback(event)
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

