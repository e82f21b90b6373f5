"""Tests for the engine's O(1) pending counter and its two scheduling entry
points, ``schedule_lite`` and ``schedule_lite_bulk``."""

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
    # Same-time entries from both entry points fire in the order they were
    # scheduled: the bulk load draws from the same sequence counter.
    engine = SimulationEngine()
    fired = []
    engine.schedule_lite(1.0, fired.append, "single")
    bulk = {"bulk-early": 0.5, "bulk-1": 1.0, "bulk-2": 1.0}  # name -> time
    loaded = engine.schedule_lite_bulk(bulk.values(), fired.append, bulk, len(bulk))
    engine.schedule_lite(1.0, fired.append, "single-2")
    assert loaded == 3
    assert engine.pending_events == 5
    engine.run()
    assert fired == ["bulk-early", "single", "bulk-1", "bulk-2", "single-2"]
    assert engine._sequence == 5


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
    for i in range(10):
        engine.schedule_lite(float(i), lambda _: None)
    assert engine.pending_events == 10
    engine.run(max_events=4)
    assert engine.pending_events == 6
    engine.schedule_lite(20.0, lambda _: None)
    assert engine.pending_events == 7
    engine.run()
    assert engine.pending_events == 0
