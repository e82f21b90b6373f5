"""Deterministic discrete-event simulation engine.

The engine owns the virtual clock and the monotone sequence counter; the
*storage* of scheduled events and the drain loop live in
:class:`~repro.sim.schedulers.HeapScheduler`, which holds
``(time, sequence, callback, payload)`` tuples — single pushes in a heap,
bulk loads beside it, built a chunk at a time from the caller's own columns
of times and payloads, constant-latency deliveries in a FIFO lane — and the
entry *is* the event:
``callback(payload)`` fires with no per-event allocation, and storing plain
tuples keeps every comparison in C.  The engine is intentionally
minimal: processes, networks, and metrics are layered on top rather than
baked in, so the same engine drives every algorithm in the library.

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
handlers over a reliable network.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Callable, Iterable, Optional, Union

from repro.exceptions import SchedulingError, SimulationError
from repro.sim.schedulers import HeapScheduler, make_scheduler


class SimulationEngine:
    """A single-threaded discrete-event scheduler with a virtual clock.

    The clock starts at ``0.0`` and only moves forward.

    Args:
        scheduler: the pending-event store — a
            :class:`~repro.sim.schedulers.HeapScheduler` instance or one of
            the spellings ``"auto"``/``"heap"``.  Defaults to a fresh heap.

    Example:
        >>> engine = SimulationEngine()
        >>> fired = []
        >>> engine.schedule_lite(5.0, lambda _: fired.append(engine.now))
        >>> engine.run()
        >>> fired
        [5.0]
    """

    def __init__(
        self,
        *,
        scheduler: Union[str, HeapScheduler, None] = None,
    ) -> None:
        self._now = 0.0
        self._sequence = 0
        self._processed = 0
        self._running = False
        self._stopped = False
        if scheduler is None:
            scheduler = HeapScheduler()
        elif isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self._scheduler = scheduler
        scheduler.bind(self)
        # Bound once: scheduling entry points call this without re-resolving
        # the scheduler per event (a frame-free C partial).
        self._push = scheduler.push_callable()

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
        """Number of events still scheduled."""
        return len(self._scheduler)

    @property
    def scheduler(self) -> HeapScheduler:
        """The pending-event store in use."""
        return self._scheduler

    @property
    def scheduler_kind(self) -> str:
        """Short name of the pending-event store (always ``"heap"``)."""
        return self._scheduler.kind

    def register_metrics(self, registry: Any, *, prefix: str = "sim") -> None:
        """Register this engine (and its scheduler) into an obs registry.

        Everything is a callback gauge reading state the engine already
        maintains — :attr:`now`, :attr:`processed_events`,
        :attr:`pending_events`, the scheduler's kind — so the scheduling and
        drain hot paths pay nothing, enabled or not.
        """
        registry.gauge(f"{prefix}.now").set_function(lambda: self._now)
        registry.gauge(f"{prefix}.processed_events").set_function(
            lambda: self._processed
        )
        registry.gauge(f"{prefix}.pending_events").set_function(
            lambda: self.pending_events
        )
        registry.gauge(f"{prefix}.scheduler").set_function(
            lambda: self._scheduler.kind
        )

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
        scheduler builds its entries a chunk at a time, out of the heap,
        from the caller's own objects (nothing is copied, so they must not
        change while queued).  Only the first time is checked here.  A load
        made while an earlier one is still queued merges with it.  No Python
        call is made per event.

        Returns:
            The number of events scheduled.

        Raises:
            SchedulingError: if the first time is earlier than ``now`` or not
                a number; nothing is scheduled (the sequence numbers the load
                drew stay drawn).
        """
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
        self._scheduler.push_bulk(
            zip(chain((first,), times), range(base, base + count), repeat(callback), payloads),
            count,
        )
        return count

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains or a limit is reached.

        The loop itself lives in the scheduler; this method owns validation
        and re-entrancy.

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
            # Zero (or negative) budget: process nothing, matching the
            # historical `processed >= max_events` behavior.
            return 0
        self._running = True
        self._stopped = False
        budget = max_events if max_events is not None else -1
        try:
            return self._scheduler.drain(until, budget)
        finally:
            self._running = False

    def step(self) -> bool:
        """Process exactly one event.

        Returns:
            ``True`` if an event was processed, ``False`` if the queue is
            empty.
        """
        return self.run(max_events=1) == 1

    def stop(self) -> None:
        """Request that the current :meth:`run` call return after the
        currently executing event finishes."""
        self._stopped = True
