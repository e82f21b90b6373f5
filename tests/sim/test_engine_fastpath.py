"""Tests for the engine's O(1) pending counter and the event-object-free
``schedule_lite`` entry point."""

from __future__ import annotations

from repro.sim.engine import SimulationEngine


def test_schedule_lite_callback_receives_payload():
    engine = SimulationEngine()
    seen = []
    engine.schedule_lite(3.0, seen.append, "payload")
    engine.run()
    assert seen == ["payload"]
    assert engine.now == 3.0
    assert engine.processed_events == 1


def test_schedule_lite_interleaves_deterministically():
    engine = SimulationEngine()
    fired = []
    engine.schedule(1.0, lambda e: fired.append("event"))
    engine.schedule_lite(1.0, lambda p: fired.append(p), "lite")
    engine.schedule(1.0, lambda e: fired.append("event-2"))
    engine.run()
    assert fired == ["event", "lite", "event-2"]


def test_schedule_lite_counts_in_pending_and_until():
    engine = SimulationEngine()
    fired = []
    engine.schedule_lite(1.0, fired.append, "early")
    engine.schedule_lite(10.0, fired.append, "late")
    engine.run(until=5.0)
    assert fired == ["early"]
    assert engine.pending_events == 1
    assert engine.now == 5.0
    engine.run()
    assert fired == ["early", "late"]
    assert engine.pending_events == 0


def test_schedule_lite_respects_max_events():
    engine = SimulationEngine()
    fired = []
    for index in range(5):
        engine.schedule_lite(float(index), fired.append, index)
    assert engine.run(max_events=2) == 2
    assert fired == [0, 1]
    assert engine.pending_events == 3


def test_pending_counter_is_exact_without_heap_rescan():
    engine = SimulationEngine()
    events = [engine.schedule(float(i), lambda e: None) for i in range(10)]
    assert engine.pending_events == 10
    events[3].cancel()
    events[7].cancel()
    assert engine.pending_events == 8
    engine.run(max_events=4)
    assert engine.pending_events == 4
    engine.run()
    assert engine.pending_events == 0


def test_double_cancel_does_not_double_decrement():
    engine = SimulationEngine()
    event = engine.schedule(1.0, lambda e: None)
    event.cancel()
    event.cancel()
    assert engine.pending_events == 0


def test_cancel_after_fire_is_a_no_op():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule(1.0, lambda e: fired.append(1))
    engine.schedule(2.0, lambda e: fired.append(2))
    engine.run(max_events=1)
    event.cancel()  # already fired: must not corrupt the pending counter
    assert engine.pending_events == 1
    engine.run()
    assert fired == [1, 2]
    assert engine.pending_events == 0
