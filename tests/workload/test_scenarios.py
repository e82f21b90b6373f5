"""Unit tests for the canned experiment scenarios."""

from __future__ import annotations

import pytest

from repro.analysis.theory import (
    average_messages_centralized_star,
    average_messages_dag_star,
    upper_bound_table,
)
from repro.topology import line, star
from repro.topology.metrics import diameter
from repro.workload import WorkloadGenerator, run_experiment
from repro.workload.scenarios import (
    average_messages_over_placements,
    compare_algorithms,
    single_request_run,
    worst_case_placement,
)
from repro.workload.requests import CSRequest, Workload


def paper_sync_delays(n, diameter):
    """Section 6.3's column of the bound table, by algorithm."""
    return {row.name: row.sync_delay for row in upper_bound_table(n=n, diameter=diameter)}


def sync_delays(algorithm, topology, first, second):
    """``second`` is fully queued behind ``first``'s long critical section (§6.3)."""
    workload = Workload((CSRequest(first, 0.0, cs_duration=50.0), CSRequest(second, 1.0)))
    return run_experiment(algorithm, topology, workload).sync_delays


def test_worst_case_placement_spans_the_diameter():
    topology, workload = worst_case_placement(line(7))
    assert len(workload) == 1
    requester = workload.requests[0].node
    # Requester and holder are the two ends of the longest path.
    assert {topology.token_holder, requester} == {1, 7}
    assert topology.token_holder != requester


def test_worst_case_run_hits_the_paper_upper_bound():
    topology, workload = worst_case_placement(line(8))
    result = single_request_run("dag", topology, workload.requests[0].node)
    assert result.total_messages == diameter(topology) + 1


def test_single_request_run_counts_only_that_entry():
    result = single_request_run("dag", star(5, token_holder=2), 4)
    assert result.completed_entries == 1
    assert result.total_messages == 3


def test_average_messages_match_section_6_2_formula_exactly():
    for n in (3, 5, 9):
        measured = average_messages_over_placements("dag", star(n))
        assert measured == pytest.approx(average_messages_dag_star(n))
        measured_centralized = average_messages_over_placements("centralized", star(n))
        assert measured_centralized == pytest.approx(average_messages_centralized_star(n))


def test_heavy_demand_run_completes_all_rounds():
    # Section 6.2: under heavy demand the DAG algorithm and the centralized
    # scheme both need at most three messages per entry.
    topology = star(6)
    workload = WorkloadGenerator(topology.nodes).heavy_demand(rounds=3)
    for algorithm in ("dag", "centralized"):
        result = run_experiment(algorithm, topology, workload)
        assert result.completed_entries == 18
        assert result.messages_per_entry <= 3.0


def test_sync_delay_run_measures_a_waiting_entry():
    # Section 6.3's table, measured on requesters other than the holder: one
    # message for the token algorithms, two for the centralized scheme...
    paper = paper_sync_delays(7, 2)
    for algorithm in ("dag", "suzuki-kasami", "singhal", "centralized"):
        assert sync_delays(algorithm, star(7), 2, 7) == [paper[algorithm]]
    assert paper["dag"] == 1.0 and paper["centralized"] == 2.0
    # ...and up to D for Raymond, growing with the line while the DAG's stays 1.
    raymond_delays = []
    for n in (4, 8, 12):
        topology = line(n, token_holder=1)
        (delay,) = sync_delays("raymond", topology, 2, n)
        assert delay <= paper_sync_delays(n, diameter(topology))["raymond"]
        raymond_delays.append(delay)
        assert sync_delays("dag", topology, 2, n) == [1.0]
    assert raymond_delays == sorted(raymond_delays)
    assert raymond_delays[-1] > raymond_delays[0]


def test_poisson_run_serves_every_request():
    topology = star(6)
    workload = WorkloadGenerator(topology.nodes, seed=3).poisson(
        total_requests=20, mean_interarrival=5.0
    )
    assert run_experiment("raymond", topology, workload).completed_entries == 20


def test_compare_algorithms_covers_requested_subset():
    topology = star(6, token_holder=2)
    workload = Workload(tuple(CSRequest(node, 0.0) for node in (3, 4, 5)))
    results = compare_algorithms(topology, workload, algorithms=["dag", "raymond"])
    assert [result.algorithm for result in results] == ["dag", "raymond"]
    assert all(result.completed_entries == 3 for result in results)


def test_compare_algorithms_defaults_to_all_registered():
    topology = star(5)
    results = compare_algorithms(topology, Workload.single(3))
    assert len(results) == 9
