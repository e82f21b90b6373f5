"""Unit tests for topology validation helpers."""

from __future__ import annotations

import pytest

from repro.exceptions import TopologyError
from repro.topology.validation import validate_tree


def test_valid_tree_passes():
    validate_tree([1, 2, 3], [(1, 2), (2, 3)])


def test_single_node_tree_passes():
    validate_tree([1], [])


def test_empty_node_set_rejected():
    with pytest.raises(TopologyError):
        validate_tree([], [])


def test_edge_with_unknown_node_rejected():
    with pytest.raises(TopologyError):
        validate_tree([1, 2], [(1, 3)])


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        validate_tree([1, 2], [(1, 1), (1, 2)])


def test_wrong_edge_count_rejected():
    with pytest.raises(TopologyError):
        validate_tree([1, 2, 3], [(1, 2)])
    with pytest.raises(TopologyError):
        validate_tree([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def test_disconnected_with_cycle_rejected():
    # Right edge count (3 edges, 4 nodes would need 3) but disconnected+cyclic.
    with pytest.raises(TopologyError):
        validate_tree([1, 2, 3, 4], [(1, 2), (2, 1), (3, 4)])
