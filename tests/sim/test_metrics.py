"""Unit tests for the metrics collector."""

from __future__ import annotations

from repro.core.messages import Privilege, Request
from repro.sim.metrics import MetricsCollector


def test_message_counting_by_type():
    metrics = MetricsCollector()
    metrics.message_sent(1, 2, Request(sender=1, origin=1), 0.0)
    metrics.message_sent(2, 3, Request(sender=2, origin=1), 1.0)
    metrics.message_sent(3, 1, Privilege(), 2.0)
    assert metrics.total_messages == 3
    assert metrics.messages_by_type == {"REQUEST": 2, "PRIVILEGE": 1}


def test_payload_sizes_averaged_per_type():
    metrics = MetricsCollector()
    metrics.message_sent(1, 2, Request(sender=1, origin=1), 0.0)
    metrics.message_sent(3, 1, Privilege(), 2.0)
    assert metrics.mean_payload_size("REQUEST") == 2.0
    assert metrics.mean_payload_size("PRIVILEGE") == 0.0
    assert metrics.mean_payload_size("UNKNOWN") == 0.0


def test_cs_lifecycle_produces_complete_record():
    metrics = MetricsCollector()
    metrics.cs_requested(3, 0.0)
    metrics.message_sent(3, 2, Request(sender=3, origin=3), 0.0)
    metrics.cs_entered(3, 2.0)
    metrics.cs_exited(3, 5.0)
    assert metrics.completed_entries == 1
    assert metrics.waiting_times == [2.0]
    assert metrics.sync_delays == []
    assert metrics.pending_requests == []


def test_messages_per_entry():
    metrics = MetricsCollector()
    for node in (1, 2):
        metrics.cs_requested(node, 0.0)
    for _ in range(6):
        metrics.message_sent(1, 2, Request(sender=1, origin=1), 0.0)
    metrics.cs_entered(1, 1.0)
    metrics.cs_exited(1, 2.0)
    metrics.cs_entered(2, 3.0)
    metrics.cs_exited(2, 4.0)
    assert metrics.messages_per_entry == 3.0


def test_messages_per_entry_zero_when_no_entries():
    metrics = MetricsCollector()
    metrics.message_sent(1, 2, "m", 0.0)
    assert metrics.messages_per_entry == 0.0


def test_sync_delay_only_for_waiting_entries():
    metrics = MetricsCollector()
    # Node 1 enters and exits without competition.
    metrics.cs_requested(1, 0.0)
    metrics.cs_entered(1, 0.0)
    # Node 2 requests while node 1 is inside.
    metrics.cs_requested(2, 1.0)
    metrics.cs_exited(1, 5.0)
    metrics.cs_entered(2, 6.0)
    metrics.cs_exited(2, 7.0)
    assert metrics.sync_delays == [1.0]
    assert metrics.max_sync_delay == 1.0  # node 1's entry never waited: no delay from it


def test_no_sync_delay_for_request_issued_after_exit():
    metrics = MetricsCollector()
    metrics.cs_requested(1, 0.0)
    metrics.cs_entered(1, 0.0)
    metrics.cs_exited(1, 2.0)
    # The next request arrives after the exit: the gap is idle time, not a
    # synchronization delay.
    metrics.cs_requested(2, 10.0)
    metrics.cs_entered(2, 12.0)
    metrics.cs_exited(2, 13.0)
    assert metrics.sync_delays == []
    assert metrics.max_sync_delay is None


def test_entry_without_request_is_synthesised():
    metrics = MetricsCollector()
    metrics.cs_entered(4, 3.0)
    metrics.cs_exited(4, 5.0)
    assert metrics.completed_entries == 1
    assert metrics.waiting_times == [0.0]


def test_pending_requests_listed():
    metrics = MetricsCollector()
    metrics.cs_requested(2, 0.0)
    metrics.cs_requested(5, 0.0)
    metrics.cs_entered(2, 1.0)
    assert metrics.pending_requests == [5]


def test_waiting_times_and_mean():
    metrics = MetricsCollector()
    metrics.cs_requested(1, 0.0)
    metrics.cs_entered(1, 4.0)
    metrics.cs_requested(2, 10.0)
    metrics.cs_entered(2, 12.0)
    assert metrics.waiting_times == [4.0, 2.0]
    assert metrics.mean_waiting_time() == 3.0


def test_mean_waiting_time_zero_when_empty():
    assert MetricsCollector().mean_waiting_time() == 0.0


def test_summary_shape():
    metrics = MetricsCollector()
    metrics.cs_requested(1, 0.0)
    metrics.message_sent(1, 2, Request(sender=1, origin=1), 0.0)
    metrics.cs_entered(1, 1.0)
    metrics.cs_exited(1, 2.0)
    summary = metrics.summary()
    assert summary["total_messages"] == 1
    assert summary["cs_entries"] == 1
    assert summary["messages_per_entry"] == 1.0
    assert summary["pending_requests"] == []
    assert "REQUEST" in summary["messages_by_type"]
