"""Integration tests running every algorithm against identical workloads."""

from __future__ import annotations

import pytest

from repro.baselines import registry
from repro.topology import balanced_tree, line, random_tree, star
from repro.workload import CSRequest, WorkloadGenerator, Workload, run_experiment

ALL_ALGORITHMS = registry.names()


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_single_isolated_request_completes(algorithm, any_topology):
    requester = any_topology.nodes[-1]
    result = run_experiment(algorithm, any_topology, Workload.single(requester))
    assert result.completed_entries == 1
    assert result.entry_order == [requester]


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_poisson_workload_completes_every_request(algorithm):
    topology = star(9, token_holder=2)
    generator = WorkloadGenerator(topology.nodes, seed=42)
    workload = generator.poisson(total_requests=30, mean_interarrival=4.0)
    result = run_experiment(algorithm, topology, workload)
    assert result.completed_entries == 30
    assert sorted(result.entry_order) == sorted(r.node for r in workload)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_heavy_contention_serialises_correctly(algorithm):
    topology = line(7, token_holder=4)
    workload = Workload(tuple(CSRequest(node, 0.0, cs_duration=2.0) for node in topology.nodes))
    result = run_experiment(algorithm, topology, workload)
    assert result.completed_entries == 7


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_repeated_requests_by_every_node(algorithm):
    topology = balanced_tree(2, 2).with_token_holder(3)
    # Nodes take turns, two rounds, one request every 30 time units.
    workload = Workload(
        tuple(CSRequest(node, slot * 30.0) for slot, node in enumerate(tuple(topology.nodes) * 2))
    )
    result = run_experiment(algorithm, topology, workload)
    assert result.completed_entries == 2 * topology.size


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_hotspot_workload(algorithm):
    topology = random_tree(10, seed=3, token_holder=1)
    generator = WorkloadGenerator(topology.nodes, seed=11)
    workload = generator.hotspot(
        total_requests=25, hot_nodes=[2, 3], hot_fraction=0.7, mean_interarrival=6.0
    )
    result = run_experiment(algorithm, topology, workload)
    assert result.completed_entries == 25


def test_same_workload_gives_comparable_entry_counts_across_algorithms():
    """Every algorithm must serve the same requests; only the costs differ."""
    topology = star(8, token_holder=3)
    generator = WorkloadGenerator(topology.nodes, seed=5)
    workload = generator.poisson(total_requests=20, mean_interarrival=5.0)
    entries = {}
    messages = {}
    for algorithm in ALL_ALGORITHMS:
        result = run_experiment(algorithm, topology, workload)
        entries[algorithm] = result.completed_entries
        messages[algorithm] = result.total_messages
    assert set(entries.values()) == {20}
    # Sanity on relative costs: the broadcast algorithms cost strictly more
    # than the DAG algorithm on the star topology.
    assert messages["dag"] < messages["ricart-agrawala"]
    assert messages["dag"] < messages["lamport"]
    assert messages["dag"] < messages["suzuki-kasami"]
    assert messages["dag"] < messages["maekawa"]
    assert messages["dag"] <= messages["raymond"]
    # ...and stays near the centralized scheme's three messages per entry.
    assert messages["dag"] / entries["dag"] <= 3.5
