"""Unit tests for the experiment driver."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.base import registry
from repro.baselines.dag_adapter import DagSystem
from repro.cells import fault_matrix
from repro.exceptions import ExperimentError
from repro.spec import FAULT_PROFILES, ExperimentSpec, TopologySpec, WorkloadSpec
from repro.topology import star
from repro.workload.driver import ExperimentDriver, run_experiment
from repro.workload.requests import CSRequest, Workload

from ..conftest import forced_node_backend


def test_run_experiment_by_name_and_by_class():
    topology = star(5, token_holder=2)
    workload = Workload.single(4)
    by_name = run_experiment("dag", topology, workload)
    by_class = run_experiment(DagSystem, topology, workload)
    assert by_name.total_messages == by_class.total_messages == 3
    assert by_name.algorithm == by_class.algorithm == "dag"


def test_result_fields_are_consistent():
    topology = star(6, token_holder=3)
    workload = Workload(tuple(CSRequest(node, 0.0, cs_duration=2.0) for node in (2, 4, 5)))
    result = run_experiment("dag", topology, workload)
    assert result.completed_entries == 3
    assert sorted(result.entry_order) == [2, 4, 5]
    assert result.messages_per_entry == pytest.approx(result.total_messages / 3)
    assert result.finished_at > 0
    assert sum(result.messages_by_type.values()) == result.total_messages
    row = result.summary_row()
    assert row["algorithm"] == "dag"
    assert row["entries"] == 3


def test_mean_sync_delay_none_when_no_contention():
    result = run_experiment("dag", star(4), Workload.single(3))
    assert result.sync_delays == []
    assert result.mean_sync_delay is None


def test_cs_duration_is_respected():
    topology = star(4, token_holder=1)
    short = run_experiment("dag", topology, Workload.single(2))
    long = run_experiment("dag", topology, Workload((CSRequest(2, 0.0, cs_duration=50.0),)))
    assert long.finished_at >= short.finished_at + 49.0


def test_back_to_back_requests_by_same_node_are_serialised():
    """Two requests by one node never overlap; the second waits for the first."""
    topology = star(4, token_holder=1)
    workload = Workload(
        requests=(
            CSRequest(node=2, arrival_time=0.0, cs_duration=10.0),
            CSRequest(node=2, arrival_time=1.0, cs_duration=1.0),
        )
    )
    result = run_experiment("dag", topology, workload)
    assert result.completed_entries == 2
    assert result.entry_order == [2, 2]


def test_unserved_workload_raises_experiment_error():
    """A partitioned channel starves the requester and the driver reports it."""
    topology = star(4, token_holder=1)
    system = DagSystem(topology)
    system.network.partition(3, 1)  # requests from node 3 can never leave
    driver = ExperimentDriver(system, Workload.single(3))
    with pytest.raises(ExperimentError):
        driver.run()


def test_event_budget_exhaustion_raises():
    topology = star(4, token_holder=1)
    system = DagSystem(topology)
    driver = ExperimentDriver(system, Workload.single(3))
    with pytest.raises(ExperimentError):
        driver.run(max_events=1)


def test_entry_order_matches_workload_for_spread_out_requests():
    topology = star(6, token_holder=1)
    workload = Workload(
        requests=tuple(
            CSRequest(node=node, arrival_time=index * 100.0)
            for index, node in enumerate([5, 2, 6, 3])
        )
    )
    result = run_experiment("dag", topology, workload)
    assert result.entry_order == [5, 2, 6, 3]


@pytest.mark.parametrize("loaded_first", [False, True], ids=["run", "load-then-run"])
def test_a_driver_loads_its_schedule_once(loaded_first):
    # The setup benchmark and the stepping recipe load through
    # ``_load_arrivals``; a ``run`` after that used to load the schedule a
    # second time and replay every request twice (40 entries for these 20).
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=10),
        workload=WorkloadSpec(tier="heavy", rounds=2),
        collect_metrics=False,
    )
    driver = ExperimentDriver.from_spec(spec)
    assert len(driver.workload) == 20
    if loaded_first:
        driver._load_arrivals(driver.system.engine)
    result = driver.run()
    assert result.completed_entries == 20
    assert driver.system.network.messages_sent == result.total_messages
    plain = ExperimentDriver.from_spec(spec).run()
    assert (result.entry_order, result.total_messages, result.finished_at) == (
        plain.entry_order, plain.total_messages, plain.finished_at,
    )
    # A second run has nothing left to replay.
    again = driver.run()
    assert again.completed_entries == 20 and again.entry_order == result.entry_order


# --------------------------------------------------------------------------- #
# the network's enter hook and the driver's own books
# --------------------------------------------------------------------------- #
#: Every algorithm, the DAG on both node backends (the baselines have one).
ALGORITHM_BACKENDS = [
    (algorithm, backend)
    for algorithm in registry.names()
    for backend in (("object", "compact") if algorithm == "dag" else ("object",))
]


def line_heavy_driver(algorithm, backend, **settings) -> ExperimentDriver:
    spec = ExperimentSpec(
        algorithm=algorithm,
        topology=TopologySpec(kind="line", n=30),
        workload=WorkloadSpec(tier="heavy", rounds=3),
        collect_metrics=False,
        **settings,
    )
    with forced_node_backend(backend):
        driver = ExperimentDriver.from_spec(spec)
    assert driver.system.node_backend == backend
    return driver


def entries_per_node(driver):
    nodes = driver.system.nodes
    return {node_id: nodes[node_id].cs_entries for node_id in nodes if nodes[node_id].cs_entries}


def entry_order_per_node(entry_order):
    counts = {}
    for node_id in entry_order:
        counts[node_id] = counts.get(node_id, 0) + 1
    return counts


@pytest.mark.parametrize("algorithm, backend", ALGORITHM_BACKENDS)
def test_every_entry_reaches_the_driver_once_through_the_network(algorithm, backend):
    driver = line_heavy_driver(algorithm, backend)
    network = driver.system.network
    assert network.on_enter is None
    driver._load_arrivals(driver.system.engine)
    assert network.on_enter == driver._handle_enter
    result = driver.run()
    assert network.on_enter is None
    # Each node's own count of entries is the number of times the driver
    # heard of one from it: every entry reported, none twice.
    assert entry_order_per_node(result.entry_order) == entries_per_node(driver)
    assert result.completed_entries == len(result.entry_order) == len(driver.workload) == 90
    assert result.entry_order is driver.entry_order


@pytest.mark.parametrize("algorithm, backend", ALGORITHM_BACKENDS)
def test_run_clears_the_network_hook_on_every_way_out(algorithm, backend):
    # An exhausted event budget raises out of run().
    driver = line_heavy_driver(algorithm, backend)
    with pytest.raises(ExperimentError, match="event budget of 10 exhausted"):
        driver.run(max_events=10)
    assert driver.system.network.on_enter is None
    # Under a fault controller a ProtocolError ends the replay and is
    # recorded: here a message no algorithm knows, delivered at t=1.
    driver = line_heavy_driver(algorithm, backend, faults=FAULT_PROFILES["lose-request"])
    driver.system.network.send(1, 2, "bogus")
    result = driver.run()
    assert "received unexpected message 'bogus'" in result.fault_summary["protocol_error"]
    assert driver.system.network.on_enter is None
    assert entry_order_per_node(result.entry_order) == entries_per_node(driver)
    assert result.completed_entries == len(result.entry_order)


@pytest.mark.parametrize("cell", fault_matrix("smoke"), ids=lambda cell: cell.name)
def test_a_metrics_free_fault_replay_counts_the_entries_its_nodes_made(cell):
    # Crashes, restarts, drops, partitions and token regeneration: the
    # driver's entry order still holds exactly the entries the nodes made,
    # and the same replay with the collector watching enters alike.
    driver = ExperimentDriver.from_spec(dataclasses.replace(cell.experiment, collect_metrics=False))
    result = driver.run()
    assert entry_order_per_node(result.entry_order) == entries_per_node(driver)
    assert result.completed_entries == len(result.entry_order)
    assert ExperimentDriver.from_spec(cell.experiment).run().entry_order == result.entry_order
