"""Engine semantics on the one pending-event store (repro.sim.schedulers)."""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulingError
from repro.sim.engine import SimulationEngine
from repro.sim.schedulers import (
    MIN_TOMBSTONES_FOR_COMPACTION,
    SCHEDULER_MODES,
    HeapScheduler,
    make_scheduler,
)


@pytest.fixture(params=["heap"])
def engine(request):
    """A fresh engine.  The single param keeps the ``[heap]`` test ids these
    cases have carried since they also ran on the bucket ring."""
    return SimulationEngine(scheduler=request.param)


def record_order(engine, times, *, priority=None):
    """Schedule one recording event per time; return the fired list."""
    fired = []
    for index, time in enumerate(times):
        engine.schedule(
            time,
            lambda ev, i=index: fired.append(i),
            priority=0 if priority is None else priority[index],
        )
    return fired


# --------------------------------------------------------------------------- #
# ordering, horizons, budgets, stop
# --------------------------------------------------------------------------- #
def test_fires_in_time_then_sequence_order(engine):
    fired = record_order(engine, [5.0, 1.0, 3.0, 1.0, 5.0])
    engine.run()
    assert fired == [1, 3, 2, 0, 4]
    assert engine.now == 5.0
    assert engine.pending_events == 0


def test_priority_breaks_same_time_ties(engine):
    fired = record_order(engine, [2.0, 2.0, 2.0], priority=[5, -1, 0])
    engine.run()
    assert fired == [1, 2, 0]


def test_off_lattice_times_fire_in_order(engine):
    times = [2.75, 0.1, 2.25, 0.9, 2.5, 7.001, 0.10001]
    fired = record_order(engine, times)
    engine.run()
    assert fired == sorted(range(len(times)), key=lambda i: times[i])
    assert engine.now == 7.001


def test_until_horizon_and_resume(engine):
    fired = record_order(engine, [1.0, 2.0, 3.0, 4.0])
    assert engine.run(until=2.5) == 2
    assert fired == [0, 1]
    assert engine.now == 2.5  # clock advances to the horizon
    assert engine.pending_events == 2
    assert engine.run() == 2
    assert fired == [0, 1, 2, 3]


def test_until_is_inclusive(engine):
    fired = record_order(engine, [2.0])
    engine.run(until=2.0)
    assert fired == [0]


def test_max_events_budget_and_step(engine):
    fired = record_order(engine, [1.0, 1.0, 1.0, 2.0])
    assert engine.run(max_events=2) == 2
    assert fired == [0, 1]
    assert engine.step() is True
    assert fired == [0, 1, 2]
    assert engine.step() is True
    assert engine.step() is False
    assert fired == [0, 1, 2, 3]


def test_stop_inside_callback_halts_after_current_event(engine):
    fired = []
    engine.schedule(1.0, lambda ev: (fired.append(1), engine.stop()))
    engine.schedule(1.0, lambda ev: fired.append(2))
    assert engine.run() == 1
    assert fired == [1]
    assert engine.run() == 1
    assert fired == [1, 2]


def test_cancelled_events_are_skipped_without_advancing_clock(engine):
    fired = []
    engine.schedule(1.0, lambda ev: fired.append("a"))
    doomed = engine.schedule(2.0, lambda ev: fired.append("doomed"))
    doomed.cancel()
    engine.run()
    assert fired == ["a"]
    assert engine.now == 1.0  # the tombstone at 2.0 must not advance the clock
    assert engine.pending_events == 0


def test_events_scheduled_during_run_at_same_time_fire_in_sequence_order(engine):
    fired = []

    def first(ev):
        fired.append("first")
        # Same-timestamp event scheduled mid-drain: must fire after the
        # already-queued same-time event (larger sequence number).
        engine.schedule(1.0, lambda e: fired.append("late"))

    engine.schedule(1.0, first)
    engine.schedule(1.0, lambda ev: fired.append("second"))
    engine.run()
    assert fired == ["first", "second", "late"]


def test_zero_delay_schedule_after_with_off_lattice_clock(engine):
    # A zero-delay event scheduled mid-drain fires before later-timed
    # entries that were already queued.
    fired = []

    def outer_event(ev):
        fired.append("outer")
        engine.schedule_after(0.0, lambda e: fired.append("inner"))

    engine.schedule(0.7, outer_event)
    engine.schedule(0.9, lambda ev: fired.append("later"))
    engine.run()
    assert fired == ["outer", "inner", "later"]


def test_callback_exception_does_not_refire_consumed_events(engine):
    fired = []
    engine.schedule(1.0, lambda ev: fired.append("ok"))

    def boom(ev):
        fired.append("boom")
        raise RuntimeError("injected")

    engine.schedule(1.0, boom)
    engine.schedule(1.0, lambda ev: fired.append("after"))
    with pytest.raises(RuntimeError):
        engine.run()
    assert fired == ["ok", "boom"]
    engine.run()
    assert fired == ["ok", "boom", "after"]  # neither lost nor re-fired


# --------------------------------------------------------------------------- #
# tombstone compaction
# --------------------------------------------------------------------------- #
def test_mass_cancellation_triggers_compaction(engine):
    keep = 10
    doomed = [
        engine.schedule(float(i + 1), lambda ev: None)
        for i in range(4 * MIN_TOMBSTONES_FOR_COMPACTION)
    ]
    kept = [
        engine.schedule(float(i + 1), lambda ev: None, priority=1)
        for i in range(keep)
    ]
    for event in doomed:
        event.cancel()
    scheduler = engine.scheduler
    # Tombstones vastly outnumber live events, so the engine must have
    # compacted: storage shrinks back to the live entries.
    assert len(scheduler) < len(doomed)
    assert engine.pending_events == keep
    assert len(scheduler) - scheduler.tombstones == keep
    processed = engine.run()
    assert processed == keep
    assert all(not event.cancelled for event in kept)


def test_compaction_mid_run_from_callback(engine):
    fired = []
    later = [
        engine.schedule(float(10 + i), lambda ev: fired.append("doomed"))
        for i in range(3 * MIN_TOMBSTONES_FOR_COMPACTION)
    ]
    survivor_times = [10.5, 20.5, 300.5]
    for time in survivor_times:
        engine.schedule(time, lambda ev: fired.append(engine.now))

    def cancel_everything(ev):
        for event in later:
            event.cancel()

    engine.schedule(1.0, cancel_everything)
    engine.run()
    assert fired == survivor_times
    assert engine.pending_events == 0


def test_compaction_preserves_order_and_counts(engine):
    fired = []
    events = [
        engine.schedule(float(i % 7 + 1), lambda ev, i=i: fired.append(i))
        for i in range(4 * MIN_TOMBSTONES_FOR_COMPACTION)
    ]
    cancelled = {i for i in range(len(events)) if i % 3 != 0}
    for index in cancelled:
        events[index].cancel()
    engine.run()
    survivors = [i for i in range(len(events)) if i not in cancelled]
    assert fired == sorted(survivors, key=lambda i: (i % 7 + 1, i))
    assert engine.pending_events == 0


# --------------------------------------------------------------------------- #
# the compatibility surface: one store, two accepted spellings
# --------------------------------------------------------------------------- #
def test_make_scheduler_modes():
    assert SCHEDULER_MODES == ("auto", "heap")
    for mode in SCHEDULER_MODES:
        assert type(make_scheduler(mode)) is HeapScheduler
        assert SimulationEngine(scheduler=mode).scheduler_kind == "heap"
    assert SimulationEngine().scheduler_kind == "heap"
    with pytest.raises(SchedulingError, match="removed"):
        make_scheduler("ring")
    with pytest.raises(SchedulingError, match="fibonacci"):
        make_scheduler("fibonacci")
