"""Event types used by the discrete-event simulation engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
assigned by the engine at scheduling time, which makes the simulation fully
deterministic: two events scheduled for the same instant are processed in the
order they were scheduled unless an explicit priority says otherwise.

:class:`Event` is a hand-rolled ``__slots__`` class rather than a dataclass:
the engine allocates one per cancellable occurrence (messages and workload
arrivals are lite heap entries with no event object), so construction cost
and memory footprint still matter on timer-heavy runs.  The engine's heap
stores plain ``(time, priority, sequence, event)`` tuples so heap comparisons
never call back into Python-level ``__lt__`` — the comparison methods here
exist only for code that orders events directly (tests, debugging tools).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional


class EventKind(enum.Enum):
    """Classification of simulation events, used by traces and metrics."""

    TIMER_FIRED = "timer_fired"
    CALLBACK = "callback"
    WORKLOAD_ARRIVAL = "workload_arrival"


class Event:
    """A schedulable simulation event.

    Only the ordering key ``(time, priority, sequence)`` participates in
    comparisons; the payload and the callback are excluded so that events
    carrying non-comparable payloads can still be ordered.

    ``owner`` is a back-reference to the engine that scheduled the event; it
    lets :meth:`cancel` keep the engine's pending-event counter exact without
    the engine having to rescan its heap.  Events constructed by hand (tests)
    leave it ``None``.
    """

    __slots__ = ("time", "priority", "sequence", "kind", "callback", "payload",
                 "cancelled", "owner")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        kind: EventKind,
        callback: Callable[["Event"], None],
        payload: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.kind = kind
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.owner = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        if not self.cancelled:
            self.cancelled = True
            owner = self.owner
            if owner is not None:
                owner._note_cancelled()
                self.owner = None

    # ------------------------------------------------------------------ #
    # ordering (key fields only, mirroring the former dataclass(order=True))
    # ------------------------------------------------------------------ #
    def _key(self):
        return (self.time, self.priority, self.sequence)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Event):
            return self._key() == other._key()
        return NotImplemented

    def __lt__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() < other._key()
        return NotImplemented

    def __le__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() <= other._key()
        return NotImplemented

    def __gt__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() > other._key()
        return NotImplemented

    def __ge__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() >= other._key()
        return NotImplemented

    __hash__ = None  # mutable (cancelled flag); unhashable like the old dataclass

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, kind={self.kind!r}, "
            f"cancelled={self.cancelled!r})"
        )


@dataclass(frozen=True)
class TimerFired:
    """Payload of a timer event set by a process.

    Attributes:
        owner: identifier of the node that set the timer.
        name: caller-chosen label for the timer.
        context: optional opaque data passed back to the owner.
    """

    owner: int
    name: str
    context: Optional[Any] = None
