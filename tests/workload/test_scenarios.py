"""Unit tests for the canned experiment scenarios."""

from __future__ import annotations

import pytest

from repro.analysis.theory import (
    average_messages_centralized_star,
    average_messages_dag_star,
    raymond_sync_delay,
    sync_delay_bounds,
)
from repro.topology import line, star
from repro.topology.metrics import diameter
from repro.workload.scenarios import (
    average_messages_over_placements,
    compare_algorithms,
    heavy_demand_run,
    poisson_run,
    single_request_run,
    sync_delay_run,
    worst_case_placement,
)
from repro.workload.requests import Workload


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
    for algorithm in ("dag", "centralized"):
        result = heavy_demand_run(algorithm, star(6), rounds=3)
        assert result.completed_entries == 18
        assert result.messages_per_entry <= 3.0


def test_sync_delay_run_measures_a_waiting_entry():
    result = sync_delay_run("dag", star(7))
    assert len(result.sync_delays) == 1
    assert result.sync_delays[0] == pytest.approx(1.0)
    # Section 6.3's table, measured: one message for the token algorithms,
    # two for the centralized scheme...
    for algorithm, paper_delay in sync_delay_bounds().items():
        assert sync_delay_run(algorithm, star(7)).sync_delays == [paper_delay]
    # ...and up to D for Raymond, growing with the line while the DAG's stays 1.
    raymond_delays = []
    for n in (4, 8, 12):
        topology = line(n, token_holder=1)
        (delay,) = sync_delay_run("raymond", topology, first=2, second=n).sync_delays
        assert delay <= raymond_sync_delay(diameter(topology))
        raymond_delays.append(delay)
        assert sync_delay_run("dag", topology, first=2, second=n).sync_delays == [1.0]
    assert raymond_delays == sorted(raymond_delays)
    assert raymond_delays[-1] > raymond_delays[0]


def test_sync_delay_run_rejects_identical_nodes():
    with pytest.raises(ValueError):
        sync_delay_run("dag", star(4), first=2, second=2)


def test_poisson_run_serves_every_request():
    result = poisson_run("raymond", star(6), total_requests=20, seed=3)
    assert result.completed_entries == 20


def test_compare_algorithms_covers_requested_subset():
    topology = star(6, token_holder=2)
    workload = Workload.simultaneous([3, 4, 5])
    results = compare_algorithms(topology, workload, algorithms=["dag", "raymond"])
    assert [result.algorithm for result in results] == ["dag", "raymond"]
    assert all(result.completed_entries == 3 for result in results)


def test_compare_algorithms_defaults_to_all_registered():
    topology = star(5)
    results = compare_algorithms(topology, Workload.single(3))
    assert len(results) == 9
