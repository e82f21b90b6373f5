"""Per-run metrics: message counts, critical-section records, delays.

Chapter 6 of the paper reports three kinds of numbers and this collector is
built to produce all of them directly:

* **messages per critical-section entry** (upper bound and average bound) —
  the total number of protocol messages divided over CS entries;
* **synchronization delay** — the gap between one node leaving its critical
  section and the next waiting node entering it.  With the default constant
  one-unit latency this gap, measured in time, equals the number of sequential
  messages on the critical path, which is how the paper defines it;
* **storage overhead** — message payload sizes are recorded so the harness can
  confirm that PRIVILEGE carries no data and REQUEST carries two integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class CriticalSectionRecord:
    """Lifecycle of one critical-section entry by one node.

    Attributes:
        node: the node that requested the critical section.
        request_time: virtual time the request was issued (``request_cs``).
        enter_time: virtual time the node entered its critical section.
        exit_time: virtual time the node left its critical section.
        sync_delay: time between the previous CS exit (by any node) and this
            entry, when this node was already waiting at that exit; ``None``
            for entries that did not have to wait for another node.
    """

    node: int
    request_time: float
    enter_time: Optional[float] = None
    exit_time: Optional[float] = None
    sync_delay: Optional[float] = None

    @property
    def waiting_time(self) -> Optional[float]:
        """Time spent between requesting and entering, or ``None`` if pending."""
        if self.enter_time is None:
            return None
        return self.enter_time - self.request_time

    @property
    def completed(self) -> bool:
        """Whether the node has both entered and exited its critical section."""
        return self.enter_time is not None and self.exit_time is not None


@dataclass
class _MessageStats:
    count: int = 0
    total_payload_ints: int = 0


class MetricsCollector:
    """Accumulates protocol metrics during one simulation run."""

    def __init__(self) -> None:
        self._total_messages = 0
        self._by_type: Dict[str, _MessageStats] = {}
        self._records: List[CriticalSectionRecord] = []
        self._pending: Dict[int, CriticalSectionRecord] = {}
        self._in_cs: Dict[int, CriticalSectionRecord] = {}
        self._last_exit_time: Optional[float] = None

    # ------------------------------------------------------------------ #
    # recording hooks
    # ------------------------------------------------------------------ #
    def message_sent(self, sender: int, receiver: int, message: Any, time: float) -> None:
        """Record one protocol message send."""
        self._total_messages += 1
        name = _message_type_name(message)
        stats = self._by_type.setdefault(name, _MessageStats())
        stats.count += 1
        stats.total_payload_ints += _payload_size(message)

    def cs_requested(self, node: int, time: float) -> None:
        """Record that ``node`` issued a critical-section request."""
        record = CriticalSectionRecord(node=node, request_time=time)
        self._records.append(record)
        self._pending[node] = record

    def cs_entered(self, node: int, time: float) -> None:
        """Record that ``node`` entered its critical section."""
        record = self._pending.pop(node, None)
        if record is None:
            # Entry without a recorded request (e.g. the initial token holder
            # entering directly in a hand-driven example); synthesize one.
            record = CriticalSectionRecord(node=node, request_time=time)
            self._records.append(record)
        record.enter_time = time
        if self._last_exit_time is not None and record.request_time < self._last_exit_time:
            record.sync_delay = time - self._last_exit_time
        self._in_cs[node] = record

    def cs_exited(self, node: int, time: float) -> None:
        """Record that ``node`` left its critical section."""
        record = self._in_cs.pop(node, None)
        if record is not None:
            record.exit_time = time
        self._last_exit_time = time

    # ------------------------------------------------------------------ #
    # derived statistics
    # ------------------------------------------------------------------ #
    @property
    def total_messages(self) -> int:
        """Total protocol messages sent during the run."""
        return self._total_messages

    @property
    def messages_by_type(self) -> Dict[str, int]:
        """Mapping from message type name to number of sends."""
        return {name: stats.count for name, stats in self._by_type.items()}

    def mean_payload_size(self, message_type: str) -> float:
        """Average payload size (in integer fields) for one message type."""
        stats = self._by_type.get(message_type)
        if stats is None or stats.count == 0:
            return 0.0
        return stats.total_payload_ints / stats.count

    @property
    def completed_entries(self) -> int:
        """Number of critical-section entries that entered and exited."""
        return sum(1 for record in self._records if record.completed)

    @property
    def pending_requests(self) -> List[int]:
        """Nodes whose requests have not yet been granted."""
        return sorted(self._pending)

    @property
    def messages_per_entry(self) -> float:
        """Total messages divided by completed critical-section entries."""
        completed = self.completed_entries
        if completed == 0:
            return 0.0
        return self._total_messages / completed

    @property
    def sync_delays(self) -> List[float]:
        """Synchronization delays for entries that waited through an exit."""
        return [
            record.sync_delay
            for record in self._records
            if record.sync_delay is not None
        ]

    @property
    def max_sync_delay(self) -> Optional[float]:
        """Largest observed synchronization delay, or ``None``."""
        delays = self.sync_delays
        return max(delays) if delays else None

    @property
    def waiting_times(self) -> List[float]:
        """Request-to-entry waiting times for granted entries."""
        return [
            record.waiting_time
            for record in self._records
            if record.waiting_time is not None
        ]

    def mean_waiting_time(self) -> float:
        """Average waiting time over granted entries (0.0 when none)."""
        times = self.waiting_times
        if not times:
            return 0.0
        return sum(times) / len(times)

    def summary(self) -> Dict[str, Any]:
        """Compact dictionary used by reports and EXPERIMENTS.md tables."""
        delays = self.sync_delays
        return {
            "total_messages": self._total_messages,
            "messages_by_type": self.messages_by_type,
            "cs_entries": self.completed_entries,
            "messages_per_entry": round(self.messages_per_entry, 4),
            "mean_sync_delay": round(sum(delays) / len(delays), 4) if delays else None,
            "max_sync_delay": self.max_sync_delay,
            "mean_waiting_time": round(self.mean_waiting_time(), 4),
            "pending_requests": self.pending_requests,
        }


def _message_type_name(message: Any) -> str:
    """Name used to bucket a message in the per-type statistics."""
    name = getattr(message, "type_name", None)
    if isinstance(name, str):
        return name
    return type(message).__name__


def _payload_size(message: Any) -> int:
    """Number of integer payload fields, via ``payload_size()`` when provided."""
    payload_size = getattr(message, "payload_size", None)
    if callable(payload_size):
        return int(payload_size())
    return 0
