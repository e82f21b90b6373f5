"""Unit tests for event ordering and payload types."""

from __future__ import annotations

from repro.sim.events import Event, EventKind, TimerFired


def make_event(time=1.0, priority=0, sequence=1):
    return Event(
        time=time,
        priority=priority,
        sequence=sequence,
        kind=EventKind.CALLBACK,
        callback=lambda event: None,
        payload=None,
    )


def test_ordering_by_time_first():
    assert make_event(time=1.0) < make_event(time=2.0, sequence=0)


def test_ordering_by_priority_at_equal_time():
    assert make_event(priority=-1, sequence=9) < make_event(priority=0, sequence=1)


def test_ordering_by_sequence_last():
    assert make_event(sequence=1) < make_event(sequence=2)


def test_payload_and_callback_do_not_participate_in_ordering():
    # Payloads that are not comparable must not break heap ordering.
    first = Event(
        time=1.0, priority=0, sequence=1, kind=EventKind.CALLBACK,
        callback=lambda e: None, payload={"a": 1},
    )
    second = Event(
        time=1.0, priority=0, sequence=2, kind=EventKind.CALLBACK,
        callback=lambda e: None, payload=object(),
    )
    assert first < second


def test_cancel_marks_event():
    event = make_event()
    assert not event.cancelled
    event.cancel()
    assert event.cancelled


def test_timer_fired_payload_defaults():
    timer = TimerFired(owner=4, name="retry")
    assert timer.context is None
    assert timer.name == "retry"


def test_event_kind_values_are_stable():
    assert EventKind.TIMER_FIRED.value == "timer_fired"
    assert EventKind.CALLBACK.value == "callback"
    assert EventKind.WORKLOAD_ARRIVAL.value == "workload_arrival"
