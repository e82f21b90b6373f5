"""Canned experiment scenarios used by the benchmark harness and the examples.

Each scenario corresponds to a setting described in the paper's evaluation:
worst-case placement for the upper bound (§6.1), uniformly random token
placement with isolated requests for the average bound (§6.2), and one
workload replayed against several algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Type, Union

from repro.baselines.base import MutexSystem, registry
from repro.sim.latency import ConstantLatency
from repro.topology.base import Topology
from repro.topology.metrics import eccentricity, path_between
from repro.workload.driver import ExperimentResult, run_experiment
from repro.workload.requests import Workload

AlgorithmSpec = Union[str, Type[MutexSystem]]


def worst_case_placement(topology: Topology) -> Tuple[Topology, Workload]:
    """Token and requester at opposite ends of the longest path (§6.1).

    Returns the topology re-rooted so the token holder is one endpoint of a
    diameter path and a single-request workload issued by the other endpoint.
    """
    # Find a diameter endpoint pair: the node with maximum eccentricity and
    # the farthest node from it.
    nodes = list(topology.nodes)
    first = max(nodes, key=lambda node: eccentricity(topology, node))
    # Farthest node from `first`:
    farthest = max(nodes, key=lambda node: len(path_between(topology, first, node)))
    holder_topology = topology.with_token_holder(first)
    workload = Workload.single(farthest)
    return holder_topology, workload


def single_request_run(
    algorithm: AlgorithmSpec,
    topology: Topology,
    requester: int,
) -> ExperimentResult:
    """One isolated request by ``requester`` on an otherwise idle system."""
    return run_experiment(
        algorithm,
        topology,
        Workload.single(requester),
        latency=ConstantLatency(1.0),
    )


def average_messages_over_placements(
    algorithm: AlgorithmSpec,
    topology: Topology,
) -> float:
    """Average messages per entry over all (token placement, requester) pairs.

    This is the §6.2 experiment: every node is equally likely to hold the
    token, every node is equally likely to be the requester, and each request
    happens on an otherwise idle system.
    """
    total_messages = 0
    runs = 0
    for holder in topology.nodes:
        rooted = topology.with_token_holder(holder)
        for requester in topology.nodes:
            result = single_request_run(algorithm, rooted, requester)
            total_messages += result.total_messages
            runs += 1
    return total_messages / runs


def compare_algorithms(
    topology: Topology,
    workload: Workload,
    *,
    algorithms: Optional[Sequence[str]] = None,
) -> List[ExperimentResult]:
    """Replay the same workload against several algorithms (default: all)."""
    names = list(algorithms) if algorithms is not None else registry.names()
    return [
        run_experiment(name, topology, workload, latency=ConstantLatency(1.0))
        for name in names
    ]
