"""A schedule is columns: how a workload stores them never changes a replay.

A generator hands the driver columns — two lists of arrival times and nodes
for the arrival processes, one :class:`HeavyRounds` value (the sorted node
tuple and a round count) for heavy demand — and ``Workload(requests=...)``
turns request objects into the same three columns.  The replay of either is
the replay of the other, event for event, on every algorithm, topology,
tier and DAG node backend; a request's duration is drawn from the duration
column in fire order; and the heavy value is drawn only as the drain reaches
it, whatever its length.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import islice

import pytest

from repro.baselines.base import registry
from repro.sim.schedulers import BULK_CHUNK
from repro.spec import WORKLOAD_TIERS, WorkloadSpec
from repro.topology import balanced_tree, line, star
from repro.workload import CSRequest, ExperimentDriver, WorkloadGenerator, run_experiment
from repro.workload.requests import HeavyRounds, Workload

from ..conftest import forced_node_backend

#: The paper's best case, its worst, and a tree whose REQUESTs travel
#: several hops.
TOPOLOGIES = {"star20": star(20), "line30": line(30), "tree2x5": balanced_tree(2, 5)}

#: Each tier as the spec builds it, heavy at three rounds.
TIERS = {
    tier: WorkloadSpec(tier=tier, rounds=3 if tier == "heavy" else None)
    for tier in WORKLOAD_TIERS
}

#: (algorithm, DAG node backend): every algorithm, and the DAG on both.
SYSTEMS = [(name, "object") for name in registry.names()] + [("dag", "compact")]


def replayed(algorithm, backend, topology, workload):
    """Everything a replay's order shows: events, messages, end, entry order."""
    with forced_node_backend(backend):
        system = registry.get(algorithm)(topology, collect_metrics=False)
    result = ExperimentDriver(system, workload).run()
    return (
        system.engine.processed_events,
        result.total_messages,
        result.finished_at,
        result.entry_order_sha256,
    )


@pytest.mark.parametrize("tier", list(TIERS))
@pytest.mark.parametrize("topology", list(TOPOLOGIES))
@pytest.mark.parametrize(
    "algorithm, backend", SYSTEMS, ids=[f"{name}-{backend}" for name, backend in SYSTEMS]
)
def test_a_column_schedule_replays_as_its_requests_do(algorithm, backend, topology, tier):
    topology = TOPOLOGIES[topology]
    columns = TIERS[tier].build(topology, seed=3)
    requests = Workload(requests=columns.requests)
    assert len(requests) == len(columns) > 0
    assert replayed(algorithm, backend, topology, columns) == replayed(
        algorithm, backend, topology, requests
    )


class TimedDriver(ExperimentDriver):
    """A driver that notes how long each critical section lasted, per node."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = {}
        self.lasted = defaultdict(list)

    def _handle_enter(self, node_id, time):
        self.entered[node_id] = time
        super()._handle_enter(node_id, time)

    def _release(self, node_id):
        now = self.system.engine.now
        self.lasted[node_id].append(now - self.entered.pop(node_id))
        super()._release(node_id)


@pytest.mark.parametrize("backend", ["object", "compact"])
def test_durations_are_drawn_in_fire_order(backend):
    # Several requests a node, at times that tie and interleave, so most
    # wait in the backlog; durations from 0.5 to 3.0 in steps that add
    # exactly.
    rng = random.Random(9)
    topology = star(12)
    schedule = [
        CSRequest(rng.randrange(1, 13), rng.randrange(40) / 4, rng.randrange(2, 13) / 4)
        for _ in range(150)
    ]
    workload = Workload(requests=schedule)
    with forced_node_backend(backend):
        driver = TimedDriver(registry.get("dag")(topology, collect_metrics=False), workload)
    result = driver.run()
    assert result.completed_entries == len(schedule)
    # A node's requests are served in schedule order, each for its own
    # duration.
    wanted = defaultdict(list)
    for request in workload:
        wanted[request.node].append(request.cs_duration)
    assert dict(driver.lasted) == dict(wanted)
    # Ordered by the workload or by its caller, the columns are the same.
    again = Workload(requests=sorted(schedule, key=lambda r: (r.arrival_time, r.node)))
    assert again == workload
    assert replayed("dag", backend, topology, again) == replayed(
        "dag", backend, topology, workload
    )


# --------------------------------------------------------------------------- #
# the heavy value
# --------------------------------------------------------------------------- #
def test_the_heavy_value_is_its_schedule_exactly():
    nodes = [7, 3, 11, 1]
    heavy = WorkloadGenerator(nodes, seed=0).heavy_demand(rounds=3)
    assert len(heavy) == 12
    expected = [
        CSRequest(node, float(round_index))
        for round_index in range(3)
        for node in sorted(nodes)
    ]
    # Exactly len() requests, in (arrival_time, node) order, on every pass.
    assert list(heavy) == list(heavy) == expected
    assert heavy == Workload(requests=reversed(expected), description=heavy.description)
    assert heavy.nodes == [1, 3, 7, 11]
    # A round's requests share one time float.
    times, _nodes, _durations = heavy.arrivals()
    first_round = list(islice(times, 4))
    assert all(time is first_round[0] for time in first_round)


def test_the_heavy_value_is_drawn_only_as_the_drain_reaches_it():
    # Two hundred million requests: a list of them would not fit here.
    rounds = 10_000_000
    value = HeavyRounds(range(1, 21), rounds)
    assert len(value) == 20 * rounds
    driver = ExperimentDriver(
        registry.get("dag")(star(20), collect_metrics=False),
        Workload.of(value, "many rounds"),
    )
    engine = driver.system.engine
    driver._load_arrivals(engine)
    assert engine.pending_events == 20 * rounds
    assert len(engine.scheduler._run) == BULK_CHUNK
    engine.run(max_events=10_000)
    assert len(driver.entry_order) > 0
    assert engine.scheduler._unloaded > 20 * rounds - 2 * 10_000


# --------------------------------------------------------------------------- #
# driver loading
# --------------------------------------------------------------------------- #
def test_an_empty_schedule_is_a_clean_noop():
    result = run_experiment("dag", star(5), Workload(requests=(), description="empty"))
    assert result.completed_entries == 0
    assert result.entry_order == []


def test_driver_backlog_serialises_repeated_requests_per_node():
    # Three same-node requests at once: the adaptive backlog must promote
    # from a bare duration to a deque and still serve strictly in order.
    requests = [
        CSRequest(node=2, arrival_time=0.0),
        CSRequest(node=2, arrival_time=0.0, cs_duration=0.0),
        CSRequest(node=2, arrival_time=0.0, cs_duration=2.0),
        CSRequest(node=3, arrival_time=0.0),
    ]
    result = run_experiment("dag", star(3), Workload(requests=requests))
    assert result.completed_entries == 4
    assert result.entry_order.count(2) == 3
