"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.exceptions import SchedulingError, SimulationError
from repro.sim.engine import SimulationEngine


def test_initial_state():
    engine = SimulationEngine()
    assert engine.now == 0.0
    assert engine.processed_events == 0
    assert engine.pending_events == 0


def test_events_run_in_time_order():
    engine = SimulationEngine()
    fired = []
    engine.schedule_lite(5.0, lambda _: fired.append("late"))
    engine.schedule_lite(1.0, lambda _: fired.append("early"))
    engine.schedule_lite(3.0, lambda _: fired.append("middle"))
    engine.run()
    assert fired == ["early", "middle", "late"]


def test_clock_advances_to_event_time():
    engine = SimulationEngine()
    seen = []
    engine.schedule_lite(2.5, lambda _: seen.append(engine.now))
    engine.schedule_lite(7.0, lambda _: seen.append(engine.now))
    engine.run()
    assert seen == [2.5, 7.0]
    assert engine.now == 7.0


def test_same_time_events_run_in_schedule_order():
    engine = SimulationEngine()
    fired = []
    for label in ["a", "b", "c"]:
        engine.schedule_lite(1.0, lambda _, label=label: fired.append(label))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_schedule_in_past_rejected():
    engine = SimulationEngine()
    engine.schedule_lite(5.0, lambda _: None)
    engine.run()
    with pytest.raises(SchedulingError):
        engine.schedule_lite(1.0, lambda _: None)


def test_clock_never_runs_backwards():
    # A callback that asks for a time before `now` is refused where it asks,
    # instead of firing at now == 2.0 after now == 5.0 and leaving the clock
    # there.
    engine = SimulationEngine()
    seen = []

    def late(_):
        seen.append(engine.now)
        engine.schedule_lite(2.0, lambda _: seen.append(engine.now))

    engine.schedule_lite(5.0, late)
    with pytest.raises(SchedulingError, match="before current time 5.0"):
        engine.run()
    assert seen == [5.0]
    assert engine.now == 5.0
    assert engine.pending_events == 0
    engine.schedule_lite(5.0, lambda _: seen.append(engine.now))  # now itself is fine
    engine.run()
    assert seen == [5.0, 5.0]


def test_a_time_that_is_not_a_number_is_refused():
    # `nan < now` is false: both ways in used to queue it.
    engine = SimulationEngine()
    nan = float("nan")
    with pytest.raises(SchedulingError, match="at nan before current time 0.0"):
        engine.schedule_lite(nan, lambda _: None)
    # A bulk load checks its first time; the rest are its caller's order,
    # and no request can carry a NaN.
    for times in ([nan], [nan, 1.0]):
        with pytest.raises(SchedulingError, match="at nan before current time 0.0"):
            engine.schedule_lite_bulk(times, lambda _: None, times, len(times))
    assert engine.pending_events == 0


def test_bulk_load_cannot_run_the_clock_backwards():
    # The same hole, through the other way in: a bulk load whose first
    # time is before `now` is refused whole, before anything is stored.
    engine = SimulationEngine()
    seen = []

    def late(_):
        seen.append(engine.now)
        engine.schedule_lite_bulk([2.0, 7.0], seen.append, [2.0, 7.0], 2)

    engine.schedule_lite(5.0, late)
    with pytest.raises(SchedulingError, match="at 2.0 before current time 5.0"):
        engine.run()
    assert seen == [5.0]
    assert engine.now == 5.0
    assert engine.pending_events == 0
    # `now` itself is fine, and so is an empty load.
    assert engine.schedule_lite_bulk([5.0], seen.append, [5], 1) == 1
    assert engine.schedule_lite_bulk([], seen.append, [], 0) == 0
    engine.run()
    assert seen == [5.0, 5]
    assert engine.now == 5.0


def test_loader_event_refills_the_bulk_run_mid_drain():
    # Loads made from a callback: each batch is bulk-loaded, then one single
    # push at the batch's last time loads the next.  The loader fires when
    # the run is spent, so the drain must notice the refill from inside its
    # heap-only stretch — in one run() call and when the drain is cut into
    # slices.
    batches = [[0.0, 1.0, 1.0], [1.0, 2.5], [2.5, 2.5, 4.0], [9.0]]

    def replay(**limits):
        engine = SimulationEngine()
        fired = []
        pending = iter(batches)

        def load(_):
            batch = next(pending, None)
            if batch is None:
                return
            engine.schedule_lite_bulk(
                batch, fired.append, [(time, index) for index, time in enumerate(batch)], len(batch)
            )
            # In-flight work beside the arrivals, and the next loader.
            engine.schedule_lite(batch[-1] + 0.25, fired.append, "echo")
            engine.schedule_lite(batch[-1], load, None)

        load(None)
        while engine.run(**limits):
            pass
        assert engine.pending_events == 0
        return fired

    whole = replay()
    assert [entry for entry in whole if entry != "echo"] == [
        (time, index) for batch in batches for index, time in enumerate(batch)
    ]
    assert whole.count("echo") == len(batches)
    assert replay(max_events=1) == whole
    assert replay(max_events=3) == whole


def test_events_scheduled_during_run_are_processed():
    engine = SimulationEngine()
    fired = []

    def chain(_):
        fired.append(engine.now)
        if len(fired) < 5:
            engine.schedule_lite(engine.now + 1.0, chain)

    engine.schedule_lite(0.0, chain)
    engine.run()
    assert fired == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_run_until_stops_before_later_events():
    engine = SimulationEngine()
    fired = []
    engine.schedule_lite(1.0, lambda _: fired.append(1))
    engine.schedule_lite(10.0, lambda _: fired.append(10))
    engine.run(until=5.0)
    assert fired == [1]
    assert engine.now == 5.0
    assert engine.pending_events == 1
    engine.run()
    assert fired == [1, 10]


def test_run_max_events_limit():
    engine = SimulationEngine()
    fired = []
    for index in range(10):
        engine.schedule_lite(float(index), lambda _, index=index: fired.append(index))
    processed = engine.run(max_events=3)
    assert processed == 3
    assert fired == [0, 1, 2]


def test_step_processes_single_event():
    engine = SimulationEngine()
    fired = []
    engine.schedule_lite(1.0, lambda _: fired.append("a"))
    engine.schedule_lite(2.0, lambda _: fired.append("b"))
    assert engine.step() is True
    assert fired == ["a"]
    assert engine.step() is True
    assert engine.step() is False


def test_stop_inside_callback():
    engine = SimulationEngine()
    fired = []
    engine.schedule_lite(1.0, lambda _: (fired.append(1), engine.stop()))
    engine.schedule_lite(2.0, lambda _: fired.append(2))
    engine.run()
    assert fired == [1]
    assert engine.pending_events == 1


def test_run_is_not_reentrant():
    engine = SimulationEngine()
    errors = []

    def reenter(_):
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.schedule_lite(1.0, reenter)
    engine.run()
    assert len(errors) == 1


def test_processed_and_pending_counters():
    engine = SimulationEngine()
    for index in range(4):
        engine.schedule_lite(float(index), lambda _: None)
    assert engine.pending_events == 4
    engine.run(max_events=2)
    assert engine.processed_events == 2
    assert engine.pending_events == 2
