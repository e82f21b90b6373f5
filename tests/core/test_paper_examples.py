"""Step-by-step replays of the paper's worked examples (Figures 2 and 6).

These tests drive the protocol through exactly the event sequences the thesis
walks through and assert the variable tables it prints.  They are the
strongest evidence that the implementation is the paper's algorithm and not
merely *an* algorithm with the same interface.
"""

from __future__ import annotations

import pytest

from repro.baselines.base import MutexSystem
from repro.baselines.dag_adapter import DagMutexNode, DagMutexProtocol, DagSystem
from repro.core.inspector import implicit_queue
from repro.core.messages import Request
from repro.topology import paper_figure2_topology, paper_figure6_topology, star
from repro.workload.driver import ExperimentDriver
from repro.workload.requests import CSRequest, Workload


def variables(protocol, node_id):
    node = protocol.node(node_id)
    return node.holding, node.next_node, node.follow


class TestFigure2Example:
    """Chapter 3's simple example on the six-node line, token at node 5."""

    def test_full_sequence(self):
        protocol = DagMutexProtocol(paper_figure2_topology(), record_trace=True)

        # Figure 2a: node 5 holds the token and enters its critical section.
        protocol.request(5)
        assert protocol.node(5).in_critical_section
        assert protocol.metrics.total_messages == 0

        # Figure 2b: node 3 wants the CS, sends REQUEST(3,3) to node 4 and
        # becomes a sink (NEXT_3 = 0).
        protocol.request(3)
        assert protocol.node(3).next_node is None
        assert protocol.node(3).requesting

        # Figure 2c: node 4 receives the request, forwards REQUEST(4,3) to
        # node 5 and sets NEXT_4 = 3.
        protocol.run(max_events=1)
        assert protocol.node(4).next_node == 3

        # Figure 2d: node 5 receives the request; being a sink in its critical
        # section it sets FOLLOW_5 = 3 and NEXT_5 = 4.
        protocol.run(max_events=1)
        assert protocol.node(5).follow == 3
        assert protocol.node(5).next_node == 4

        # Node 5 leaves its critical section and sends the PRIVILEGE to node 3.
        protocol.release(5)
        assert protocol.node(5).follow is None

        # Figure 2e: node 3 receives the PRIVILEGE and enters.
        protocol.run_until_quiescent()
        assert protocol.node(3).in_critical_section
        assert protocol.metrics.messages_by_type == {"REQUEST": 2, "PRIVILEGE": 1}

    def test_worst_case_on_the_line_is_n_messages(self):
        """Chapter 6: on the straight line the upper bound is N messages."""
        topology = paper_figure2_topology().with_token_holder(6)
        protocol = DagMutexProtocol(topology)
        protocol.request(1)
        protocol.run_until_quiescent()
        assert protocol.node(1).in_critical_section
        # 5 REQUEST hops plus 1 PRIVILEGE = 6 = N.
        assert protocol.metrics.total_messages == 6


class TestFigure6CompleteExample:
    """Chapter 4's complete example, steps 1-13, checked table by table."""

    @pytest.fixture
    def protocol(self):
        return DagMutexProtocol(paper_figure6_topology(), record_trace=True)

    def test_initial_configuration_matches_figure_6a(self, protocol):
        assert variables(protocol, 1) == (False, 2, None)
        assert variables(protocol, 2) == (False, 3, None)
        assert variables(protocol, 3) == (True, None, None)
        assert variables(protocol, 4) == (False, 3, None)
        assert variables(protocol, 5) == (False, 2, None)
        assert variables(protocol, 6) == (False, 4, None)

    def test_steps_2_to_13(self, protocol):
        # Step 2 (Figure 6b): node 3 enters its critical section.
        protocol.request(3)
        assert protocol.node(3).in_critical_section
        assert variables(protocol, 3) == (False, None, None)

        # Step 3 (Figure 6b): node 2 sends REQUEST(2,2) to node 3, NEXT_2 = 0.
        protocol.request(2)
        assert variables(protocol, 2) == (False, None, None)

        # Step 4 (Figure 6c): node 3 receives it, FOLLOW_3 = 2, NEXT_3 = 2.
        protocol.run_until_quiescent()
        assert variables(protocol, 3) == (False, 2, 2)

        # Steps 5-6 (Figure 6d): nodes 1 and 5 send requests to node 2.
        protocol.request(1)
        protocol.request(5)
        assert variables(protocol, 1) == (False, None, None)
        assert variables(protocol, 5) == (False, None, None)

        # Step 7 (Figure 6e): node 2 processes node 1's request first:
        # FOLLOW_2 = 1, NEXT_2 = 1.
        protocol.run(max_events=1)
        assert variables(protocol, 2) == (False, 1, 1)

        # Step 8 (Figure 6f): node 2 processes node 5's request, forwards
        # REQUEST(2,5) to node 1 and sets NEXT_2 = 5.
        protocol.run(max_events=1)
        assert variables(protocol, 2) == (False, 5, 1)

        # Step 9 (Figure 6g): node 1 receives REQUEST(2,5): FOLLOW_1 = 5,
        # NEXT_1 = 2.  The implicit queue is 2, 1, 5.
        protocol.run_until_quiescent()
        assert variables(protocol, 1) == (False, 2, 5)
        assert implicit_queue(protocol) == [2, 1, 5]

        # Step 10 (Figure 6h): node 3 leaves its CS and passes the token to 2.
        protocol.release(3)
        assert variables(protocol, 3) == (False, 2, None)
        protocol.run_until_quiescent()

        # Step 11 (Figure 6i): node 2 enters, leaves, passes the token to 1.
        assert protocol.node(2).in_critical_section
        protocol.release(2)
        assert variables(protocol, 2) == (False, 5, None)
        protocol.run_until_quiescent()

        # Step 12 (Figure 6j): node 1 enters, leaves, passes the token to 5.
        assert protocol.node(1).in_critical_section
        protocol.release(1)
        assert variables(protocol, 1) == (False, 2, None)
        protocol.run_until_quiescent()

        # Step 13 (Figure 6k): node 5 enters, leaves, keeps the token.
        assert protocol.node(5).in_critical_section
        protocol.release(5)
        assert variables(protocol, 5) == (True, None, None)

        # Final table (Figure 6k): NEXT values and a single holder at node 5.
        assert variables(protocol, 1) == (False, 2, None)
        assert variables(protocol, 2) == (False, 5, None)
        assert variables(protocol, 3) == (False, 2, None)
        assert variables(protocol, 4) == (False, 3, None)
        assert variables(protocol, 6) == (False, 4, None)
        assert protocol.token_location() == 5

    def test_message_totals_for_the_complete_example(self, protocol):
        """The whole example needs 4 REQUEST sends and 3 PRIVILEGE sends."""
        protocol.request(3)
        protocol.request(2)
        protocol.run_until_quiescent()
        protocol.request(1)
        protocol.request(5)
        protocol.run_until_quiescent()
        for node_id in (3, 2, 1, 5):
            protocol.release(node_id)
            protocol.run_until_quiescent()
        assert protocol.metrics.messages_by_type == {"REQUEST": 4, "PRIVILEGE": 3}
        assert protocol.metrics.completed_entries == 4

    def test_grant_order_equals_implicit_queue(self, protocol):
        """The implicit queue deduced from FOLLOW pointers is the grant order."""
        protocol.request(3)
        protocol.request(2)
        protocol.run_until_quiescent()
        protocol.request(1)
        protocol.request(5)
        protocol.run_until_quiescent()
        queue_before = implicit_queue(protocol)
        grant_order = []
        current = 3
        for _ in range(4):
            grant_order.append(current)
            protocol.release(current)
            protocol.run_until_quiescent()
            waiting = [
                node_id
                for node_id in protocol.node_ids
                if protocol.node(node_id).in_critical_section
            ]
            current = waiting[0] if waiting else None
        assert grant_order == [3] + queue_before


class NoFastPathNode(DagMutexNode):
    """A DagMutexNode without transition 8 of Figure 4 (the ablation)."""

    def _handle_request(self, sender: int, message: Request) -> None:
        adjacent, origin = message.sender, message.origin
        if self.next_node is None:
            # Ablated: even an idle holder only records the requester and
            # keeps the token until it has used the critical section itself.
            self.follow = origin
        else:
            self.network.send(
                self.node_id, self.next_node, Request(sender=self.node_id, origin=origin)
            )
        self.next_node = adjacent


class NoFastPathSystem(MutexSystem):
    """The DAG system built from ablated nodes (not registered globally)."""

    algorithm_name = "dag-no-fast-path"
    uses_topology_edges = True
    storage_description = DagSystem.storage_description

    def _create_nodes(self):
        pointers = self.topology.next_pointers()
        return {
            node_id: NoFastPathNode(
                node_id,
                self.network,
                holding=(node_id == self.topology.token_holder),
                next_node=pointers[node_id],
            )
            for node_id in self.topology.nodes
        }


def test_idle_holder_hands_the_token_over_at_once():
    """Transition 8 of Figure 4, by ablation: a sink that holds the token but
    is not using it forwards the PRIVILEGE immediately, so the requester waits
    only for the messages to travel.  Merely recording the requester in FOLLOW
    (the naive simplification of P2) parks the token at the idle holder until
    the holder next cycles through its own critical section."""
    topology = star(9, token_holder=2)
    workload = Workload(
        requests=(
            CSRequest(node=7, arrival_time=0.0, cs_duration=1.0),
            CSRequest(node=2, arrival_time=500.0, cs_duration=1.0),
        ),
        description="idle-holder fast path ablation",
    )
    # The ablated handler is the one the network calls: the class table is
    # resolved on the subclass, not inherited from DagMutexNode.
    assert NoFastPathNode.dispatch_table[Request] is NoFastPathNode._handle_request
    assert DagMutexNode.dispatch_table[Request] is DagMutexNode._handle_request
    waits = {}
    for system_class in (DagSystem, NoFastPathSystem):
        system = system_class(topology)
        ExperimentDriver(system, workload).run()
        waits[system_class] = max(system.metrics.waiting_times)
    assert waits[DagSystem] <= 5.0
    assert waits[NoFastPathSystem] >= 400.0
