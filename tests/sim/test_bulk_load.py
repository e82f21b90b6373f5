"""The bulk load's contract: one lazy pass over the caller's two columns.

``SimulationEngine.schedule_lite_bulk(times, callback, payloads, count)``
draws ``count`` sequence numbers, one per event in column order, each
payload fired at its time, and hands the scheduler one iterator zipped from
the two columns — the times ascending, as a ``Workload`` keeps its own; only
:data:`~repro.sim.schedulers.BULK_CHUNK` entries are built ahead of the
drain.  Every case but the clock check loads more than one chunk, so the
part of a load that is not built yet is always in play: it
must count in ``pending_events``, fire in ``(time, sequence)`` order however
the drain is sliced, and merge with a second load made before it is built.
"""

from __future__ import annotations

from operator import itemgetter

import pytest

from repro.bench import run_setup_scenario
from repro.cells import bench_cell
from repro.exceptions import SchedulingError
from repro.sim.engine import SimulationEngine
from repro.sim.schedulers import BULK_CHUNK
from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver

SIZE = 2 * BULK_CHUNK + 5
#: The time of a ``(time, load, index)`` payload.
AT = itemgetter(0)


def load(engine, callback, payloads):
    """Bulk-load ``(time, ...)`` payloads, each at its own time."""
    return engine.schedule_lite_bulk(map(AT, payloads), callback, payloads, len(payloads))


def test_the_unbuilt_part_of_a_load_counts_as_pending():
    engine = SimulationEngine()
    fired = []
    times = [1.0] * SIZE
    assert engine.schedule_lite_bulk(times, fired.append, range(SIZE), SIZE) == SIZE
    assert len(engine.scheduler._run) == BULK_CHUNK
    assert engine.pending_events == SIZE
    for taken in (1, BULK_CHUNK - 1, 1, BULK_CHUNK, 3):
        assert engine.run(max_events=taken) == taken
        assert engine.pending_events == SIZE - len(fired)
    assert engine.run() == 1
    assert engine.pending_events == 0
    # Equal times fire in load order, across every chunk boundary.
    assert fired == list(range(SIZE))


def test_a_second_load_merges_with_a_part_built_first():
    first = [(float(index // 3), "first", index) for index in range(SIZE)]
    engine = SimulationEngine()
    fired = []
    load(engine, fired.append, first)
    engine.run(max_events=10)
    assert len(engine.scheduler._run) == BULK_CHUNK - 10
    # Every time of the second load is at or after now (3.0), and many tie
    # with the first's: a tie fires the first load's event first, which is
    # also how the payloads sort ("first" < "second").
    second = [(index / 2 + 0.5 + engine.now, "second", index) for index in range(SIZE)]
    load(engine, fired.append, second)
    assert engine.pending_events == 2 * SIZE - 10
    engine.run()
    assert fired == sorted(first + second)
    assert engine.pending_events == 0


def test_a_load_made_from_a_callback_merges_too():
    early = [(float(index // 1000), "early", index) for index in range(SIZE)]
    late = [(2.0 + index / SIZE, "late", index) for index in range(SIZE)]
    engine = SimulationEngine()
    fired = []

    def load_late(_):
        # Mid-drain, with the early load's chunk part spent.
        assert 0 < len(engine.scheduler._run) < BULK_CHUNK
        load(engine, fired.append, late)

    load(engine, fired.append, early)
    engine.schedule_lite(1.5, load_late)
    engine.run()
    # A tie fires the early load's event first ("early" < "late").
    assert fired == sorted(early + late)


def test_sliced_drains_fire_the_whole_drain_order():
    # Arrivals that push singles at equal and later times, as the driver's
    # releases do, drained whole and one event at a time.
    times = [float(index // 100) for index in range(SIZE)]

    def replay(**limits):
        engine = SimulationEngine()
        fired = []

        def arrive(index):
            fired.append(index)
            if index % 3 == 0:
                engine.schedule_lite(engine.now + index % 2, fired.append, -index)

        engine.schedule_lite_bulk(times, arrive, range(SIZE), SIZE)
        while engine.run(**limits):
            pass
        assert engine.pending_events == 0
        return fired

    whole = replay()
    assert len(whole) == SIZE + len(range(0, SIZE, 3))
    assert replay(max_events=1) == whole
    assert replay(max_events=BULK_CHUNK - 1) == whole


def noted(column, drawn):
    """``column``, noting every value drawn from it in ``drawn``."""
    for value in column:
        drawn.append(value)
        yield value


def test_a_load_is_drawn_only_as_the_drain_reaches_it():
    engine = SimulationEngine()
    fired, times, payloads = [], [], []
    loaded = engine.schedule_lite_bulk(
        noted((float(index // 3) for index in range(SIZE)), times),
        fired.append,
        noted(range(SIZE), payloads),
        SIZE,
    )
    assert loaded == SIZE
    # Every sequence number is drawn, one chunk of each column is.
    assert engine._sequence == engine.pending_events == SIZE
    assert len(times) == len(payloads) == BULK_CHUNK
    engine.run(max_events=BULK_CHUNK)
    assert len(times) == len(payloads) == 2 * BULK_CHUNK
    engine.run()
    assert fired == payloads == list(range(SIZE))
    assert times == [float(index // 3) for index in range(SIZE)]


def test_a_load_checks_its_first_time_against_the_clock():
    engine = SimulationEngine()
    engine.schedule_lite(2.0, lambda _: None)
    engine.run()
    with pytest.raises(SchedulingError, match="at 1.0 before current time 2.0"):
        engine.schedule_lite_bulk([1.0, 3.0], lambda _: None, [1, 3], 2)
    assert engine.pending_events == 0


def test_a_stepped_replay_enters_in_the_order_of_a_whole_one():
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=100),
        workload=WorkloadSpec(tier="heavy", rounds=50),
        collect_metrics=False,
    )
    whole = ExperimentDriver.from_spec(spec)
    whole.run()
    stepped = ExperimentDriver.from_spec(spec)
    engine = stepped.system.engine
    stepped._load_arrivals(engine)
    assert engine.pending_events == len(stepped.workload) == 5000 > BULK_CHUNK
    while engine.run(max_events=1):
        pass
    assert stepped.entry_order == whole.entry_order
    assert engine.processed_events == whole.system.engine.processed_events


def test_setup_benchmark_counts_the_unbuilt_arrivals():
    row = run_setup_scenario(bench_cell("star", 300, "heavy"))
    assert row["loaded_arrivals"] == row["total_requests"] == 3000 > BULK_CHUNK
