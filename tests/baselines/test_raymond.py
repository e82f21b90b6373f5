"""Unit tests for Raymond's tree-based algorithm."""

from __future__ import annotations

import pytest

from repro.baselines.raymond import (
    RaymondNode,
    RaymondPrivilege,
    RaymondRequest,
    RaymondSystem,
)
from repro.exceptions import ProtocolError
from repro.topology import line, star


def test_holder_enters_for_free():
    system = RaymondSystem(star(5))
    system.request(1)
    assert system.in_critical_section(1)
    assert system.metrics.total_messages == 0


def test_leaf_to_leaf_entry_on_star_costs_four_messages():
    """Raymond on the centralized topology needs up to 4 messages (the paper's
    comparison point: the DAG algorithm needs only 3)."""
    system = RaymondSystem(star(6, token_holder=2))
    system.request(5)
    system.run_until_quiescent()
    assert system.in_critical_section(5)
    # REQUEST 5->1, REQUEST 1->2, PRIVILEGE 2->1, PRIVILEGE 1->5.
    assert system.metrics.total_messages == 4
    assert system.metrics.messages_by_type == {"REQUEST": 2, "PRIVILEGE": 2}


def test_line_worst_case_is_twice_the_distance():
    system = RaymondSystem(line(6, token_holder=6))
    system.request(1)
    system.run_until_quiescent()
    assert system.in_critical_section(1)
    assert system.metrics.total_messages == 2 * 5


def test_token_moves_hop_by_hop_and_holder_pointers_follow():
    system = RaymondSystem(line(4, token_holder=4))
    system.request(1)
    system.run_until_quiescent()
    # After the transfer every HOLDER pointer aims toward node 1.
    assert system.node(1).holder is None
    assert system.node(2).holder == 1
    assert system.node(3).holder == 2
    assert system.node(4).holder == 3


def test_asked_flag_prevents_duplicate_forwarding():
    system = RaymondSystem(line(5, token_holder=5))
    # Nodes 1 and 2 both request; node 2 forwards its own request and must not
    # forward a second one on behalf of node 1 until the token comes back.
    system.request(2)
    system.request(1)
    system.run_until_quiescent()
    assert system.in_critical_section(2)
    # Each hop relayed exactly one REQUEST toward the holder even though two
    # requests are outstanding below it: 2->3->4->5 (3 messages) plus node 1's
    # request to node 2 (1 message), and no duplicates thanks to ASKED.
    assert system.metrics.messages_by_type["REQUEST"] == 4
    system.release(2)
    system.run_until_quiescent()
    assert system.in_critical_section(1)
    system.release(1)
    system.run_until_quiescent()
    assert system.nodes_in_critical_section() == []


def test_fifo_queue_order_served(line_topology=None):
    system = RaymondSystem(line(5, token_holder=3))
    for node in (1, 5, 2):
        system.request(node)
    served = []
    for _ in range(3):
        system.run_until_quiescent()
        current = system.nodes_in_critical_section()[0]
        served.append(current)
        system.release(current)
    system.run_until_quiescent()
    assert sorted(served) == [1, 2, 5]


def test_mutual_exclusion_under_contention():
    system = RaymondSystem(line(7, token_holder=4))
    for node in system.node_ids:
        system.request(node)
    system.run_until_quiescent()
    assert len(system.nodes_in_critical_section()) == 1


def test_all_requests_served_under_contention():
    system = RaymondSystem(line(7, token_holder=4))
    for node in system.node_ids:
        system.request(node)
    served = []
    for _ in range(7):
        system.run_until_quiescent()
        current = system.nodes_in_critical_section()
        if not current:
            break
        served.append(current[0])
        system.release(current[0])
    assert sorted(served) == system.node_ids


def test_unexpected_message_rejected():
    system = RaymondSystem(star(3))
    with pytest.raises(ProtocolError):
        system.node(2).on_message(1, 123)


class CountingNode(RaymondNode):
    """Overrides one handler method and remaps one ``_MESSAGE_HANDLERS`` entry.

    The network dispatches through the class's own table, so both changes
    must be what runs — a table of the base class's functions would silently
    run ``RaymondNode``'s handlers instead.
    """

    _MESSAGE_HANDLERS = {**RaymondNode._MESSAGE_HANDLERS, RaymondPrivilege: "_count_privilege"}

    def __init__(self, node_id, network, **kwargs):
        super().__init__(node_id, network, **kwargs)
        self.seen = []

    def _on_request(self, sender, message):
        self.seen.append(("request", sender))
        super()._on_request(sender, message)

    def _count_privilege(self, sender, message):
        self.seen.append(("privilege", sender))
        self._on_privilege(sender, message)


class CountingSystem(RaymondSystem):
    algorithm_name = "raymond-counting"  # not registered

    def _create_nodes(self):
        pointers = self.topology.next_pointers()
        return {
            node_id: CountingNode(node_id, self.network, holder=pointers[node_id])
            for node_id in self.topology.nodes
        }


def test_a_subclass_override_and_a_remapped_entry_are_what_the_network_runs():
    assert CountingNode.dispatch_table == {
        RaymondRequest: CountingNode._on_request,
        RaymondPrivilege: CountingNode._count_privilege,
    }
    assert RaymondNode.dispatch_table[RaymondRequest] is RaymondNode._on_request
    system = CountingSystem(line(4, token_holder=4))
    system.request(1)
    system.run_until_quiescent()
    assert system.in_critical_section(1)
    assert [system.node(n).seen for n in (1, 2, 3, 4)] == [
        [("privilege", 2)],
        [("request", 1), ("privilege", 3)],
        [("request", 2), ("privilege", 4)],
        [("request", 3)],
    ]
    # A direct on_message call goes through the same class table.
    system.node(4).on_message(3, RaymondRequest(origin=3))
    assert system.node(4).seen[-1] == ("request", 3)
