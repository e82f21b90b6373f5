"""Unit tests for the Topology value object."""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError
from repro.topology.base import Topology


def make_path():
    """1 - 2 - 3 - 4 with the token at 4."""
    return Topology.from_edges([(1, 2), (2, 3), (3, 4)], token_holder=4)


def test_basic_properties():
    topology = make_path()
    assert topology.size == 4
    assert topology.token_holder == 4
    assert topology.neighbors(2) == (1, 3)
    assert topology.degree(1) == 1
    assert topology.degree(2) == 2
    assert set(topology.leaves()) == {1, 4}


def test_edges_are_normalised_and_sorted():
    topology = Topology.from_edges([(3, 2), (2, 1)], token_holder=1)
    assert topology.edges == ((1, 2), (2, 3))


def test_single_node_topology():
    topology = Topology.from_edges([], token_holder=1)
    assert topology.size == 1
    assert topology.leaves() == (1,)
    assert topology.next_pointers() == {1: None}


def test_node_ids_other_than_one_to_n_rejected():
    # Two edges make three nodes, 1..3: id 4 is not one of them.
    with pytest.raises(TopologyError, match="outside the topology"):
        Topology.from_edges([(1, 2), (2, 4)], token_holder=1)


def test_duplicate_edges_rejected():
    with pytest.raises(TopologyError, match="duplicate edges"):
        Topology.from_edges([(1, 2), (2, 1), (2, 3)], token_holder=1)


def test_self_loop_rejected():
    with pytest.raises(TopologyError, match="self-loop"):
        Topology.from_edges([(1, 1)], token_holder=1)


def test_unknown_token_holder_rejected():
    with pytest.raises(TopologyError, match="token holder 9"):
        Topology.from_edges([(1, 2)], token_holder=9)


def test_cycle_rejected():
    with pytest.raises(TopologyError, match="cycle"):
        Topology.from_edges([(1, 2), (2, 3), (1, 3)], token_holder=1)


def test_disconnected_graph_rejected():
    with pytest.raises(TopologyError, match=r"unreachable nodes: \[5\]"):
        Topology.from_edges([(1, 2), (3, 4), (2, 3), (1, 4)], token_holder=1)
    with pytest.raises(TopologyError, match=r"unreachable nodes: \[3, 4, 5\]"):
        Topology.from_edges([(3, 4), (4, 5), (5, 3), (1, 2)], token_holder=1)


def test_unknown_node_in_neighbors_query():
    with pytest.raises(TopologyError):
        make_path().neighbors(99)


def test_next_pointers_point_toward_token_holder():
    topology = make_path()
    assert topology.next_pointers() == {1: 2, 2: 3, 3: 4, 4: None}


def test_with_token_holder_rebases_orientation():
    topology = make_path().with_token_holder(1)
    assert topology.token_holder == 1
    assert topology.next_pointers()[4] == 3
    assert topology.next_pointers()[1] is None


def test_with_token_holder_unknown_node():
    with pytest.raises(TopologyError):
        make_path().with_token_holder(123)


def test_from_edges_infers_nodes():
    topology = Topology.from_edges([(1, 2), (2, 3)], token_holder=3)
    assert tuple(topology.nodes) == (1, 2, 3)
    assert topology.token_holder == 3


def test_from_edges_single_node():
    topology = Topology.from_edges([], token_holder=1)
    assert tuple(topology.nodes) == (1,)
    # No edges make one node, and ids are 1..n: the lone node is node 1.
    with pytest.raises(TopologyError, match="token holder 9"):
        Topology.from_edges([], token_holder=9)


def test_describe_mentions_size_and_holder():
    text = make_path().describe()
    assert "n=4" in text
    assert "token_holder=4" in text
