"""End-to-end integration tests crossing every package boundary."""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.comparison import compare_measured_to_theory
from repro.analysis.report import format_table
from repro.baselines import registry
from repro.baselines.dag_adapter import DagMutexProtocol, run_initialization
from repro.runtime import LocalCluster
from repro.sim.latency import ExponentialLatency, UniformLatency
from repro.sim.rng import SeededRNG
from repro.topology import Topology, random_tree, star
from repro.topology.metrics import diameter
from repro.workload import WorkloadGenerator, run_experiment
from repro.workload.scenarios import compare_algorithms


def test_bootstrap_then_run_protocol_from_flooded_pointers():
    """Initialise NEXT pointers with the Figure 5 flood, then run the protocol
    on a system built from those pointers rather than from the analytic ones."""
    topology = random_tree(12, seed=8, token_holder=5)
    adjacency = {node: list(topology.neighbors(node)) for node in topology.nodes}
    pointers = run_initialization(adjacency, 5)
    rebuilt = Topology.from_edges(topology.edges, token_holder=5)
    protocol = DagMutexProtocol(rebuilt, check_invariants=True)
    for node_id, expected_next in pointers.items():
        assert protocol.node(node_id).next_node == expected_next
    protocol.request(9)
    protocol.run_until_quiescent()
    assert protocol.node(9).in_critical_section


def test_full_comparison_pipeline_produces_consistent_tables():
    """Workload generation -> per-algorithm runs -> summary rows -> rendered table."""
    topology = star(8, token_holder=4)
    generator = WorkloadGenerator(topology.nodes, seed=13)
    workload = generator.poisson(total_requests=25, mean_interarrival=4.0)
    results = compare_algorithms(topology, workload)
    assert {result.algorithm for result in results} == set(registry.names())
    table = format_table([result.summary_row() for result in results])
    for name in registry.names():
        assert name in table
    rows = compare_measured_to_theory(
        [result for result in results if result.algorithm == "dag"],
        n=8,
        diameter=diameter(topology),
    )
    # Under contention messages per entry can only be *smaller* than the
    # isolated-request upper bound for the DAG algorithm.
    assert rows[0].within_bound


def test_randomised_latency_does_not_affect_correctness_or_message_counts():
    """Message counts depend on the protocol, not on timing: random latencies
    change the interleaving but every request is still served."""
    topology = random_tree(9, seed=21, token_holder=2)
    generator = WorkloadGenerator(topology.nodes, seed=3)
    workload = generator.poisson(total_requests=20, mean_interarrival=2.0)
    constant = run_experiment("dag", topology, workload)
    jittered = run_experiment(
        "dag",
        topology,
        workload,
        latency=UniformLatency(0.5, 3.0, rng=SeededRNG(4)),
    )
    heavy_tail = run_experiment(
        "dag",
        topology,
        workload,
        latency=ExponentialLatency(2.0, rng=SeededRNG(5)),
    )
    assert constant.completed_entries == 20
    assert jittered.completed_entries == 20
    assert heavy_tail.completed_entries == 20


def test_simulator_and_asyncio_runtime_agree_on_message_counts():
    """The same scenario costs the same number of messages in both substrates."""
    topology = star(6, token_holder=2)

    # Simulator: node 5 acquires once.
    sim_result = run_experiment("dag", topology, workload=__single(5))
    assert sim_result.total_messages == 3

    async def runtime_scenario():
        async with LocalCluster(topology) as cluster:
            async with cluster.lock(5):
                pass
            return cluster.transport.messages_sent

    runtime_messages = asyncio.run(runtime_scenario())
    assert runtime_messages == sim_result.total_messages


def __single(node):
    from repro.workload.requests import Workload

    return Workload.single(node)


def test_protocol_survives_a_long_mixed_stress_run():
    """A longer randomized run with invariants checked on every event."""
    topology = random_tree(15, seed=33, token_holder=7)
    generator = WorkloadGenerator(topology.nodes, seed=44)
    workload = generator.poisson(total_requests=120, mean_interarrival=1.5)
    from repro.baselines.dag_adapter import DagSystem
    from repro.core.invariants import InvariantChecker
    from repro.workload.driver import ExperimentDriver

    system = DagSystem(topology)

    class View:
        def __init__(self, system):
            self.topology = system.topology
            self.nodes = system.nodes
            self.network = system.network

    checker = InvariantChecker(View(system))
    original_run = system.engine.run

    ExperimentDriver(system, workload)._load_arrivals(system.engine)
    # Step the engine manually so every event is followed by a full check.
    while system.engine.pending_events:
        system.engine.run(max_events=1)
        checker.check()
    assert system.metrics.completed_entries == 120
    assert checker.checks_performed > 500
