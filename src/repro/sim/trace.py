"""Event tracing.

The trace is the raw material for two deliverables: replaying the worked
examples of Figures 2 and 6 (each step in those figures corresponds to a send,
a receive, or a critical-section transition), and computing derived statistics
that the metrics collector does not track directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List


@dataclass(frozen=True)
class TraceEvent:
    """A single recorded protocol-level occurrence.

    Attributes:
        time: virtual time of the occurrence.
        category: one of ``send``, ``receive``, ``cs_request``, ``cs_enter``,
            ``cs_exit``, ``state_change``, or a caller-defined label.
        node: identifier of the node at which the occurrence happened.
        detail: free-form mapping with category-specific fields (message type,
            peer node, variable values, ...).
    """

    time: float
    category: str
    node: int
    detail: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Accumulates :class:`TraceEvent` objects during a simulation run.

    Recording can be disabled (the default for large benchmark runs) in which
    case :meth:`record` is a no-op, keeping the hot path cheap.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TraceEvent] = []

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events in chronological order of recording."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def record(
        self,
        time: float,
        category: str,
        node: int,
        **detail: Any,
    ) -> None:
        """Record one event (no-op when the recorder is disabled)."""
        if not self.enabled:
            return
        self._events.append(TraceEvent(time=time, category=category, node=node, detail=detail))
