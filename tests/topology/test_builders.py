"""Unit tests for topology builders."""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import DagMutexProtocol
from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.builders import (
    balanced_tree,
    line,
    paper_figure2_topology,
    paper_figure6_topology,
    radiating_star,
    random_tree,
    star,
)
from repro.topology.metrics import diameter


def test_line_shape():
    topology = line(5)
    assert topology.size == 5
    assert topology.degree(1) == 1
    assert topology.degree(3) == 2
    assert diameter(topology) == 4
    assert topology.token_holder == 1


def test_line_token_holder_override():
    assert line(5, token_holder=3).token_holder == 3


def test_line_single_node():
    topology = line(1)
    assert topology.size == 1
    assert diameter(topology) == 0


def test_line_rejects_zero_nodes():
    with pytest.raises(TopologyError):
        line(0)


def test_star_shape():
    topology = star(6)
    assert topology.size == 6
    assert topology.degree(1) == 5
    assert all(topology.degree(node) == 1 for node in range(2, 7))
    assert diameter(topology) == 2
    assert topology.token_holder == 1


def test_star_custom_holder():
    topology = star(6, token_holder=5)
    assert topology.degree(1) == 5
    assert topology.token_holder == 5
    assert topology.next_pointers()[1] == 5


def test_star_rejects_bad_holder():
    with pytest.raises(TopologyError):
        star(4, token_holder=9)


def test_radiating_star_shape():
    topology = radiating_star(arms=3, arm_length=2)
    assert topology.size == 1 + 3 * 2
    assert topology.degree(1) == 3
    assert diameter(topology) == 4


def test_radiating_star_with_arm_length_one_is_a_star():
    topology = radiating_star(arms=5, arm_length=1)
    assert diameter(topology) == 2
    assert topology.degree(1) == 5


def test_radiating_star_validates_arguments():
    with pytest.raises(TopologyError):
        radiating_star(arms=0, arm_length=2)
    with pytest.raises(TopologyError):
        radiating_star(arms=2, arm_length=0)


def test_balanced_tree_sizes():
    assert balanced_tree(2, 0).size == 1
    assert balanced_tree(2, 1).size == 3
    assert balanced_tree(2, 2).size == 7
    assert balanced_tree(3, 2).size == 13


def test_balanced_tree_depth_one_is_star():
    topology = balanced_tree(4, 1)
    assert diameter(topology) == 2
    assert topology.degree(1) == 4


def test_balanced_tree_validates_arguments():
    with pytest.raises(TopologyError):
        balanced_tree(0, 2)
    with pytest.raises(TopologyError):
        balanced_tree(2, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25])
def test_random_tree_is_a_valid_tree(n):
    topology = random_tree(n, seed=17)
    assert topology.size == n
    assert len(topology.edges) == n - 1
    # The orientation induced from the holder passes the product's checks:
    # pointers along tree edges, no cycle, one sink and it holds the token.
    DagMutexProtocol(topology, check_invariants=True).invariant_checker.check()


def test_random_tree_deterministic_per_seed():
    assert random_tree(12, seed=5).edges == random_tree(12, seed=5).edges
    assert random_tree(12, seed=5).edges != random_tree(12, seed=6).edges


def test_random_tree_token_holder_override():
    assert random_tree(8, seed=1, token_holder=4).token_holder == 4


def test_custom_tree_from_edges():
    topology = Topology.from_edges([(1, 2), (2, 3), (2, 4)], token_holder=3)
    assert topology.size == 4
    assert topology.token_holder == 3


def test_custom_tree_rejects_cycle():
    with pytest.raises(TopologyError):
        Topology.from_edges([(1, 2), (2, 3), (3, 1)], token_holder=1)


def test_paper_figure2_topology_is_the_six_node_line():
    topology = paper_figure2_topology()
    assert topology.size == 6
    assert diameter(topology) == 5
    assert topology.token_holder == 5
    # Node 3's path to the token goes through node 4, as in the figure.
    assert topology.next_pointers()[3] == 4


def test_paper_figure6_topology_matches_figure_6a():
    topology = paper_figure6_topology()
    assert topology.size == 6
    assert topology.token_holder == 3
    # Initial NEXT values from Figure 6a.
    assert topology.next_pointers() == {1: 2, 2: 3, 3: None, 4: 3, 5: 2, 6: 4}
