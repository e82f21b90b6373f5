"""Unit tests for the experiment driver."""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import DagSystem
from repro.exceptions import ExperimentError
from repro.topology import star
from repro.workload.driver import ExperimentDriver, run_experiment
from repro.workload.requests import CSRequest, Workload


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
