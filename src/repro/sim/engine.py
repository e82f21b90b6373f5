"""Deterministic discrete-event simulation engine.

The engine owns the virtual clock, the monotone sequence counter, the
pending events and the loop that drains them.  An event waits as a plain
tuple in one of three stores, and the entry *is* the event — no per-event
allocation, every comparison in C:

* the **heap** holds what callbacks schedule one at a time at arbitrary
  times — releases, faults, messages a network watches on delivery — as
  ``(time, sequence, callback, payload)``, fired as ``callback(payload)``;
* the **bulk load** holds a workload's arrivals: a cursor over the caller's
  own columns, of which :data:`BULK_CHUNK` entries at a time, in the heap's
  form, wait in one list sorted descending, so the next one due is its last
  and firing it is a ``list.pop()``;
* the **lane** holds what one constant-latency network sends, as a
  ready-to-fire call ``(time, sequence, fn, target, sender, message)``,
  fired as ``fn(target, sender, message)``: each delivery is due at
  ``now + d`` with ``now`` never decreasing and the sequence always
  growing, so a FIFO ``deque`` is sorted by construction.

:meth:`SimulationEngine.run` fires the smallest of the lane's head, the
heap's head and the chunk's tail, compared as whole tuples exactly as one
heap would compare them, so the order is the single heap's.  The engine is
intentionally minimal: processes, networks and metrics are layered on top,
so the same engine drives every algorithm in the library.

Determinism contract: events fire in ``(time, sequence)`` order, with the
sequence number allocated monotonically at scheduling time.  The two entry
points — :meth:`SimulationEngine.schedule_lite` and
:meth:`SimulationEngine.schedule_lite_bulk` — and the two inlined entries
that mirror them (``Network.send``'s lane append or heap push,
``ExperimentDriver._handle_enter``'s heap push) draw from the same sequence
counter, so mixing them never changes the replay order; a bulk load draws
all its numbers when it is made, however lazily its entries are built, so
how a schedule's columns are stored never changes it either.  Nothing is ever
un-scheduled: the paper's procedures and every baseline are pure message
handlers over a reliable network.  ``benchmarks/README.md`` ("Why there is
one scheduler", "Why bulk-loaded arrivals are not in the heap", "Why
messages are not in the heap") holds the A/Bs behind the three stores.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from itertools import chain, islice, repeat
from math import inf
from typing import Any, Callable, Deque, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import SchedulingError, SimulationError
from repro.sim.schedulers import SCHEDULER_MODES, unknown_scheduler_message

#: Entries of a bulk load built at a time.
BULK_CHUNK = 2048


class SimulationEngine:
    """A single-threaded discrete-event scheduler with a virtual clock.

    The clock starts at ``0.0`` and only moves forward.

    Args:
        scheduler: ``"auto"`` or ``"heap"``; both name the one event queue.
            Kept because ``experiment-spec/v1`` documents carry the field.

    Example:
        >>> engine = SimulationEngine()
        >>> fired = []
        >>> engine.schedule_lite(5.0, lambda _: fired.append(engine.now))
        >>> engine.run()
        1
        >>> fired
        [5.0]
    """

    def __init__(self, *, scheduler: str = "auto") -> None:
        if scheduler not in SCHEDULER_MODES:
            raise SchedulingError(unknown_scheduler_message(scheduler))
        self._now = 0.0
        self._sequence = 0
        self._processed = 0
        self._running = False
        self._heap: List[Tuple] = []
        self._run: List[Tuple] = []  # the bulk load's built chunk, descending
        self._cursor: Iterator[Tuple] = iter(())  # the rest of it
        self._unloaded = 0  # entries still behind the cursor
        self._lane: Deque[Tuple] = deque()
        self._lane_claimed = False
        # The one-entry heap push every scheduling site calls: a C partial
        # of the C heappush, no Python frame per insert.
        self._push = partial(heappush, self._heap)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Events still scheduled: heap, bulk load and lane together."""
        return len(self._heap) + len(self._run) + self._unloaded + len(self._lane)

    @property
    def scheduler_kind(self) -> str:
        """Short name of the event queue (always ``"heap"``)."""
        return "heap"

    def register_metrics(self, registry: Any, *, prefix: str = "sim") -> None:
        """Register this engine into an obs registry.

        Everything is a callback gauge reading state the engine already
        maintains — :attr:`now`, :attr:`processed_events`,
        :attr:`pending_events`, :attr:`scheduler_kind` — so the scheduling
        and drain hot paths pay nothing, enabled or not.
        """
        registry.gauge(f"{prefix}.now").set_function(lambda: self._now)
        registry.gauge(f"{prefix}.processed_events").set_function(
            lambda: self._processed
        )
        registry.gauge(f"{prefix}.pending_events").set_function(
            lambda: self.pending_events
        )
        registry.gauge(f"{prefix}.scheduler").set_function(lambda: self.scheduler_kind)

    def claim_lane(self) -> Optional[Deque[Tuple]]:
        """The FIFO lane for its one owner, ``None`` after that.

        The owner appends ``(time, sequence, fn, target, sender, message)``
        entries, which :meth:`run` fires as ``fn(target, sender, message)``
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

    def schedule_lite(
        self,
        time: float,
        callback: Callable[[Any], None],
        payload: Any = None,
    ) -> None:
        """Schedule ``callback(payload)`` to run at absolute virtual ``time``.

        The queue entry *is* the event — one tuple, no per-event object.

        Raises:
            SchedulingError: if ``time`` is earlier than ``now`` (the clock
                never runs backwards) or not a number.
        """
        if not time >= self._now:
            raise SchedulingError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        sequence = self._sequence + 1
        self._sequence = sequence
        self._push((time, sequence, callback, payload))

    def schedule_lite_bulk(
        self,
        times: Iterable[float],
        callback: Callable[[Any], None],
        payloads: Iterable[Any],
        count: int,
    ) -> int:
        """Bulk :meth:`schedule_lite`: ``callback(payload)`` at ``time`` for
        each of ``count`` ``(time, payload)`` pairs, zipped from the two
        columns, in one call.

        Each event is stamped with the next sequence number in column
        order, exactly as if :meth:`schedule_lite` had been called per pair;
        all ``count`` of them are drawn here.  ``times`` ascends — a
        ``Workload``'s columns are in ``(arrival_time, node)`` order — and
        both columns are drawn once, only as the drain reaches them: the
        load never enters the heap, and only :data:`BULK_CHUNK` entries are
        built ahead of the drain, from the caller's own objects (nothing is
        copied, so they must not change while queued).  Only the first time
        is checked here.  No Python call is made per event.

        Returns:
            The number of events scheduled.

        Raises:
            SchedulingError: if an earlier load is still queued (an engine
                holds one at a time; nothing is drawn), or if the first time
                is earlier than ``now`` or not a number (nothing is
                scheduled; the sequence numbers the load drew stay drawn).
        """
        if self._run:
            raise SchedulingError("a bulk load is still queued; an engine holds one at a time")
        base = self._sequence + 1
        self._sequence += count
        if not count:
            return 0
        times = iter(times)
        first = next(times)
        if not first >= self._now:
            raise SchedulingError(
                f"cannot schedule event at {first} before current time {self._now}"
            )
        self._cursor = zip(
            chain((first,), times), range(base, base + count), repeat(callback), payloads
        )
        self._unloaded = count
        self._refill()
        return count

    def _refill(self) -> None:
        """Build the load's next chunk into the (empty) run."""
        run = self._run
        run.extend(islice(self._cursor, BULK_CHUNK))
        if run:
            run.reverse()
            self._unloaded -= len(run)
        else:  # spent: let go of the caller's columns
            self._cursor = iter(())

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains or a limit is reached.

        Args:
            until: stop (without processing) events scheduled strictly after
                this virtual time.  The clock is advanced to ``until`` if it
                is reached.
            max_events: stop after processing this many events in this call.

        Returns:
            The number of events processed during this call.

        Raises:
            SimulationError: if called re-entrantly from an event callback.
        """
        if self._running:
            raise SimulationError("SimulationEngine.run() is not re-entrant")
        if max_events is not None and max_events <= 0:
            return 0
        budget = max_events if max_events is not None else -1
        heap = self._heap
        run = self._run
        lane = self._lane
        take_heap = partial(heappop, heap)
        take_run = run.pop
        refill = self._refill
        take_lane = lane.popleft
        horizon = inf if until is None else until
        processed = 0
        self._running = True
        try:
            while True:
                # The smallest of the three heads, compared as whole tuples
                # exactly as one heap would compare them.
                if lane:
                    entry = lane[0]
                    if not (heap and heap[0] < entry or run and run[-1] < entry):
                        if processed == budget:
                            return processed
                        time, _sequence, fn, target, sender, message = entry
                        if time > horizon:
                            break
                        take_lane()
                        self._now = time
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
                if processed == budget:
                    return processed
                time, _sequence, callback, payload = entry
                if time > horizon:
                    break
                take()
                if take is take_run and not run:
                    refill()
                self._now = time
                callback(payload)
                processed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._processed += processed
            self._running = False
        return processed
