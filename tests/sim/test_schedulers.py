"""Engine semantics on the one pending-event store (repro.sim.schedulers)."""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulingError
from repro.sim.engine import SimulationEngine
from repro.sim.schedulers import SCHEDULER_MODES, HeapScheduler, make_scheduler


@pytest.fixture(params=["heap"])
def engine(request):
    """A fresh engine.  The single param keeps the ``[heap]`` test ids these
    cases have carried since they also ran on the bucket ring."""
    return SimulationEngine(scheduler=request.param)


def record_order(engine, times):
    """Schedule one recording event per time; return the fired list."""
    fired = []
    for index, time in enumerate(times):
        engine.schedule_lite(time, fired.append, index)
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
    engine.schedule_lite(1.0, lambda _: (fired.append(1), engine.stop()))
    engine.schedule_lite(1.0, lambda _: fired.append(2))
    assert engine.run() == 1
    assert fired == [1]
    assert engine.run() == 1
    assert fired == [1, 2]


def test_events_scheduled_during_run_at_same_time_fire_in_sequence_order(engine):
    fired = []

    def first(_):
        fired.append("first")
        # Same-timestamp event scheduled mid-drain: must fire after the
        # already-queued same-time event (larger sequence number).
        engine.schedule_lite(1.0, lambda _: fired.append("late"))

    engine.schedule_lite(1.0, first)
    engine.schedule_lite(1.0, lambda _: fired.append("second"))
    engine.run()
    assert fired == ["first", "second", "late"]


def test_zero_delay_schedule_after_with_off_lattice_clock(engine):
    # A zero-delay event scheduled mid-drain fires before later-timed
    # entries that were already queued.
    fired = []

    def outer_event(_):
        fired.append("outer")
        engine.schedule_lite(engine.now + 0.0, lambda _: fired.append("inner"))

    engine.schedule_lite(0.7, outer_event)
    engine.schedule_lite(0.9, lambda _: fired.append("later"))
    engine.run()
    assert fired == ["outer", "inner", "later"]


def test_callback_exception_does_not_refire_consumed_events(engine):
    fired = []
    engine.schedule_lite(1.0, lambda _: fired.append("ok"))

    def boom(_):
        fired.append("boom")
        raise RuntimeError("injected")

    engine.schedule_lite(1.0, boom)
    engine.schedule_lite(1.0, lambda _: fired.append("after"))
    with pytest.raises(RuntimeError):
        engine.run()
    assert fired == ["ok", "boom"]
    engine.run()
    assert fired == ["ok", "boom", "after"]  # neither lost nor re-fired


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
