"""Tests for the adapter exposing the core protocol as a MutexSystem."""

from __future__ import annotations

from repro.baselines.dag_adapter import DagMutexNode, DagMutexProtocol, DagSystem
from repro.topology import paper_figure6_topology, star
from repro.workload import Workload, WorkloadGenerator, run_experiment


def test_adapter_uses_the_same_node_state_machine():
    system = DagSystem(star(5))
    assert all(isinstance(node, DagMutexNode) for node in system.nodes.values())
    assert system.uses_topology_edges
    assert "HOLDING" in system.storage_description


def test_adapter_initialisation_matches_protocol_initialisation():
    topology = paper_figure6_topology()
    system = DagSystem(topology)
    protocol = DagMutexProtocol(topology)
    for node_id in topology.nodes:
        assert system.node(node_id).next_node == protocol.node(node_id).next_node
        assert system.node(node_id).holding == protocol.node(node_id).holding


def test_adapter_and_protocol_agree_on_message_counts():
    """Driving the same scenario through both front-ends costs the same."""
    topology = star(7, token_holder=3)

    protocol = DagMutexProtocol(topology)
    protocol.request(6)
    protocol.run_until_quiescent()
    protocol.release(6)
    protocol.run_until_quiescent()

    result = run_experiment(DagSystem, topology, Workload.single(6))
    assert result.total_messages == protocol.metrics.total_messages


def test_adapter_runs_a_full_workload_with_driver_metrics():
    topology = paper_figure6_topology()
    generator = WorkloadGenerator(topology.nodes, seed=9)
    workload = generator.poisson(total_requests=15, mean_interarrival=2.0)
    result = run_experiment("dag", topology, workload)
    assert result.algorithm == "dag"
    assert result.completed_entries == 15
    assert set(result.messages_by_type) <= {"REQUEST", "PRIVILEGE"}
