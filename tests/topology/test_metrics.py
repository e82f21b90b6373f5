"""Unit tests for topology graph metrics."""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError
from repro.topology.builders import balanced_tree, line, star
from repro.topology.metrics import diameter, eccentricity, path_between


def test_diameter_of_line():
    assert diameter(line(2)) == 1
    assert diameter(line(6)) == 5
    assert diameter(line(10)) == 9


def test_diameter_of_star_is_two():
    assert diameter(star(3)) == 2
    assert diameter(star(50)) == 2


def test_diameter_of_single_node_is_zero():
    assert diameter(line(1)) == 0


def test_diameter_of_balanced_tree():
    # Depth-2 binary tree: leaf -> root -> leaf on the other side = 4 hops.
    assert diameter(balanced_tree(2, 2)) == 4


def test_eccentricity_depends_on_position():
    topology = line(5)
    assert eccentricity(topology, 1) == 4
    assert eccentricity(topology, 3) == 2
    assert eccentricity(topology, 5) == 4


def test_eccentricity_of_star_center_and_leaf():
    topology = star(9)
    assert eccentricity(topology, 1) == 1
    assert eccentricity(topology, 5) == 2


def test_path_between_endpoints_of_line():
    topology = line(5)
    assert path_between(topology, 1, 5) == [1, 2, 3, 4, 5]
    assert path_between(topology, 5, 1) == [5, 4, 3, 2, 1]


def test_path_between_same_node():
    assert path_between(line(5), 3, 3) == [3]


def test_path_between_through_star_center():
    topology = star(6)
    assert path_between(topology, 2, 5) == [2, 1, 5]


def test_path_between_unknown_node_raises():
    with pytest.raises(TopologyError):
        path_between(line(3), 1, 99)
    with pytest.raises(TopologyError):
        eccentricity(line(3), 99)
