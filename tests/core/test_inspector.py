"""Unit tests for the implicit-queue inspector."""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import DagMutexProtocol
from repro.core.inspector import (
    implicit_queue,
    token_holder,
    waiting_nodes,
)
from repro.exceptions import InvariantViolation
from repro.topology import paper_figure6_topology, star


@pytest.fixture
def loaded_protocol():
    """The Figure 6 scenario right after step 9: queue is 3 -> 2 -> 1 -> 5."""
    protocol = DagMutexProtocol(paper_figure6_topology())
    protocol.request(3)
    protocol.request(2)
    protocol.run_until_quiescent()
    protocol.request(1)
    protocol.request(5)
    protocol.run_until_quiescent()
    return protocol


def test_token_holder_of_fresh_system():
    protocol = DagMutexProtocol(star(5))
    assert token_holder(protocol) == 1


def test_token_holder_none_while_token_in_flight():
    protocol = DagMutexProtocol(star(5, token_holder=2))
    protocol.request(3)
    protocol.run(max_events=2)  # PRIVILEGE now in flight toward node 3
    assert token_holder(protocol) is None


def test_implicit_queue_matches_figure_6(loaded_protocol):
    assert implicit_queue(loaded_protocol) == [2, 1, 5]


def test_implicit_queue_empty_when_nothing_waits():
    protocol = DagMutexProtocol(star(5))
    assert implicit_queue(protocol) == []
    protocol.request(1)
    assert implicit_queue(protocol) == []


def test_implicit_queue_detects_cycles(loaded_protocol):
    # Corrupt the FOLLOW chain on purpose: 5 -> 2 closes a cycle.
    loaded_protocol.node(5).follow = 2
    with pytest.raises(InvariantViolation):
        implicit_queue(loaded_protocol)


def test_token_holder_detects_duplicates(loaded_protocol):
    loaded_protocol.node(6).holding = True
    with pytest.raises(InvariantViolation):
        token_holder(loaded_protocol)


def test_find_sinks_quiescent_and_during_requests():
    protocol = DagMutexProtocol(star(5))
    def sinks():
        return {node_id for node_id in protocol.node_ids if protocol.node(node_id).next_node is None}

    assert sinks() == {1}
    protocol.request(4)  # node 4 becomes a sink until its request is absorbed
    assert sinks() == {1, 4}
    protocol.run_until_quiescent()
    assert sinks() == {4}


def test_next_pointer_map_reflects_reorientation(loaded_protocol):
    pointers = {node_id: loaded_protocol.node(node_id).next_node for node_id in range(1, 7)}
    # Figure 6g: NEXT_1 = 2, NEXT_2 = 5, NEXT_3 = 2, NEXT_4 = 3, NEXT_5 = 0.
    assert pointers[1] == 2
    assert pointers[2] == 5
    assert pointers[3] == 2
    assert pointers[4] == 3
    assert pointers[5] is None
    assert pointers[6] == 4


def test_waiting_nodes(loaded_protocol):
    assert waiting_nodes(loaded_protocol) == [1, 2, 5]
    protocol = DagMutexProtocol(star(4))
    assert waiting_nodes(protocol) == []
