"""A replay, a schedule's build and the cycle collector.

``ExperimentDriver.run`` pauses ``gc`` for its own duration
(``paused_collector``).  That is safe only because a replay allocates no
reference cycle — reference counting frees everything it makes — so the
premise is held here, not assumed: after a replay a full collection finds
nothing.  Then the pause itself (no collection inside, the caller's
collector state back on every way out); a schedule's build, which needs no
pause because it allocates no container per request; the slotted
:class:`CSRequest` a caller that iterates a schedule gets; and the
schedule's columns, which cross processes by pickle.  No wall clock
anywhere.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.baselines.base import registry
from repro.cells import fault_matrix
from repro.core.messages import Privilege
from repro.exceptions import ExperimentError, ProtocolError, WorkloadError
from repro.spec import FAULT_PROFILES, ExperimentSpec, TopologySpec, WorkloadSpec
from repro.topology import star
from repro.workload import CSRequest, ExperimentDriver, Workload
from repro.workload.requests import HeavyRounds

from ..conftest import forced_node_backend


def heavy_spec(algorithm="dag", *, n=9, rounds=3, **settings) -> ExperimentSpec:
    return ExperimentSpec(
        algorithm=algorithm, topology=TopologySpec(kind="star", n=n),
        workload=WorkloadSpec(tier="heavy", rounds=rounds), **settings,
    )


def unreachable_after_replay(spec: ExperimentSpec) -> int:
    driver = ExperimentDriver.from_spec(spec)
    gc.collect()  # whatever building left behind is not the replay's
    driver.run()
    return gc.collect()


# --------------------------------------------------------------------------- #
# (a) the premise: a replay leaves nothing for the collector
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("collect_metrics", [True, False], ids=["metrics", "bare"])
@pytest.mark.parametrize("algorithm", registry.names())
def test_a_replay_allocates_no_reference_cycle(algorithm, collect_metrics):
    spec = heavy_spec(algorithm, collect_metrics=collect_metrics)
    assert unreachable_after_replay(spec) == 0


@pytest.mark.parametrize("collect_metrics", [True, False], ids=["metrics", "bare"])
@pytest.mark.parametrize("backend", ["object", "compact"])
def test_neither_dag_backend_allocates_a_reference_cycle(backend, collect_metrics):
    with forced_node_backend(backend):
        spec = heavy_spec(collect_metrics=collect_metrics)
        assert unreachable_after_replay(spec) == 0


@pytest.mark.parametrize("cell", fault_matrix(), ids=lambda cell: cell.name)
def test_a_fault_injected_replay_allocates_no_reference_cycle(cell):
    assert unreachable_after_replay(cell.experiment) == 0


CRASH_RECOVER = next(
    cell for cell in fault_matrix() if cell.name == "dag-star-n50-heavy+crash-recover"
)


@pytest.mark.parametrize(
    "backend, spec",
    [
        ("object", heavy_spec()),
        ("compact", heavy_spec()),
        ("object", CRASH_RECOVER.experiment),
    ],
    ids=["object", "compact", CRASH_RECOVER.name],
)
def test_a_finished_driver_goes_with_its_last_reference(backend, spec):
    # The nodes' enter hooks are bound to the driver only while run() runs;
    # left set after it, they would pin the driver and its whole schedule
    # behind a cycle through the system.  Nothing here collects.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with forced_node_backend(backend):
            driver = ExperimentDriver.from_spec(spec)
        driver.run()
        refs = [weakref.ref(driver), weakref.ref(driver.workload)]
        columns = driver.workload._columns
        if type(columns) is HeavyRounds:
            refs.append(weakref.ref(columns))
        del driver, columns
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------------- #
# (b) the pause
# --------------------------------------------------------------------------- #
def test_no_collection_runs_inside_a_replay():
    # ~25k events and three container allocations per request: dozens of
    # generation-0 thresholds' worth with the collector left on.  Counted by
    # callback and read before anything else is allocated: the interpreter's
    # own counters cannot be sampled without allocating, and the first
    # allocation after run() re-enables the collector is a collection.
    driver = ExperimentDriver.from_spec(heavy_spec(n=1000, rounds=5, collect_metrics=False))
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info)

    assert gc.isenabled()
    gc.collect()  # generation 0 starts empty: nothing is about to fall due
    gc.callbacks.append(note)
    try:
        result = driver.run()
        inside = len(started)
    finally:
        gc.callbacks.remove(note)
    assert inside == 0
    assert gc.isenabled()
    assert result.completed_entries == 5000


def stray_privilege_driver(*, faults) -> ExperimentDriver:
    """A replay whose first delivery hands a second token to an idle node."""
    spec = heavy_spec(n=4, faults=FAULT_PROFILES["drop1"] if faults else None)
    driver = ExperimentDriver.from_spec(spec, workload=Workload.single(2))
    driver.system.network.send(1, 3, Privilege())
    return driver


def returns():
    ExperimentDriver.from_spec(heavy_spec()).run()


def exhausts_its_event_budget():
    with pytest.raises(ExperimentError, match="event budget of 1 exhausted"):
        ExperimentDriver.from_spec(heavy_spec()).run(max_events=1)


def raises_a_protocol_error():
    with pytest.raises(ProtocolError, match="PRIVILEGE"):
        stray_privilege_driver(faults=False).run()


def records_a_protocol_error():
    # Under a fault controller the violation is part of the measurement:
    # run() records it and returns.
    result = stray_privilege_driver(faults=True).run()
    assert "PRIVILEGE" in result.fault_summary["protocol_error"]


@pytest.mark.parametrize("enabled_by_caller", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "replay",
    [returns, exhausts_its_event_budget, raises_a_protocol_error, records_a_protocol_error],
    ids=lambda replay: replay.__name__,
)
def test_run_leaves_the_collector_as_it_found_it(replay, enabled_by_caller):
    was_enabled = gc.isenabled()
    try:
        if not enabled_by_caller:
            gc.disable()
        replay()
        assert gc.isenabled() is enabled_by_caller
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------------- #
# (c) building a schedule: no cycle, and nothing for a collector to walk
# --------------------------------------------------------------------------- #
TIERS = {
    "light": WorkloadSpec(tier="light"),
    "heavy": WorkloadSpec(tier="heavy", rounds=3),
    "bursty": WorkloadSpec(tier="bursty"),
    "hotspot": WorkloadSpec(tier="hotspot"),
    "diurnal": WorkloadSpec(tier="diurnal"),
}


@pytest.mark.parametrize("tier", list(TIERS))
def test_building_a_schedule_allocates_no_reference_cycle(tier):
    topology = star(9)
    gc.collect()
    workload = TIERS[tier].build(topology, seed=5)
    assert gc.collect() == 0
    # Nor does a caller that makes its requests.
    requests = workload.requests
    assert gc.collect() == 0
    assert len(requests) == len(workload) > 0


def test_no_collection_runs_inside_a_build():
    # 20 000 fresh arrivals with the collector on: a request object each
    # would be 28 generation-0 thresholds' worth, two floats appended to
    # two lists are none.
    topology = star(1000)
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info)

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(note)
    try:
        workload = WorkloadSpec(tier="light", total_requests=20000).build(topology)
        inside = len(started)
    finally:
        gc.callbacks.remove(note)
    assert inside == 0
    assert gc.isenabled()
    assert len(workload) == 20000


def builds():
    assert len(WorkloadSpec(tier="heavy", rounds=2).build(star(9))) == 18


def refuses_inside_the_build():
    # The spec accepts a negative count; the generator refuses it.
    with pytest.raises(WorkloadError, match="total_requests must be >= 0"):
        WorkloadSpec(tier="light", total_requests=-1).build(star(9))


@pytest.mark.parametrize("enabled_by_caller", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "build", [builds, refuses_inside_the_build], ids=lambda build: build.__name__
)
def test_build_leaves_the_collector_as_it_found_it(build, enabled_by_caller):
    was_enabled = gc.isenabled()
    try:
        if not enabled_by_caller:
            gc.disable()
        build()
        assert gc.isenabled() is enabled_by_caller
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------------- #
# (d) CSRequest: a frozen value with three slots and no __dict__
# --------------------------------------------------------------------------- #
def test_csrequest_is_a_value():
    request = CSRequest(node=3, arrival_time=1.5, cs_duration=2.0)
    assert request == CSRequest(3, 1.5, 2.0)
    assert request != CSRequest(3, 1.5)
    assert request != (3, 1.5, 2.0)
    assert hash(request) == hash(CSRequest(3, 1.5, 2.0))
    assert len({request, CSRequest(3, 1.5, 2.0), CSRequest(4, 1.5, 2.0)}) == 2
    assert repr(request) == "CSRequest(node=3, arrival_time=1.5, cs_duration=2.0)"
    assert CSRequest(node=1, arrival_time=0.0).cs_duration == 1.0


def test_csrequest_is_frozen_and_has_no_dict():
    request = CSRequest(node=3, arrival_time=1.5)
    assert not hasattr(request, "__dict__")
    with pytest.raises(AttributeError, match="cannot assign to field 'node'"):
        request.node = 4
    with pytest.raises(AttributeError):
        request.priority = 1
    with pytest.raises(AttributeError, match="cannot delete field 'node'"):
        del request.node
    assert request == CSRequest(3, 1.5)


def test_csrequest_refuses_negative_times_with_the_same_words():
    with pytest.raises(WorkloadError, match="^arrival time must be non-negative, got -1.0$"):
        CSRequest(node=1, arrival_time=-1.0)
    with pytest.raises(WorkloadError, match="^CS duration must be non-negative, got -2.0$"):
        CSRequest(node=1, arrival_time=0.0, cs_duration=-2.0)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_csrequest_survives_a_pickle_round_trip(protocol):
    # Sweep shards and spawn workers carry workloads across processes.
    workload = Workload(requests=(CSRequest(2, 0.5), CSRequest(1, 0.5, 3.0)))
    copy = pickle.loads(pickle.dumps(workload, protocol))
    assert copy == workload
    assert copy.requests[0] == CSRequest(1, 0.5, 3.0)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_heavy_schedule_survives_a_pickle_round_trip(protocol):
    # The heavy value crosses as its node tuple and round count, not as
    # its 9000 requests.
    workload = WorkloadSpec(tier="heavy", rounds=1000).build(star(9))
    payload = pickle.dumps(workload, protocol)
    assert len(payload) < 300
    copy = pickle.loads(payload)
    assert type(copy._columns) is HeavyRounds
    assert copy == workload
    assert copy.description == workload.description
    assert list(copy) == list(workload)
