"""Unit tests for the DagMutexNode state machine (Figure 3 transcription)."""

from __future__ import annotations

import asyncio

import pytest

from repro.baselines.dag_adapter import DagMutexNode, DagSystem
from repro.core.messages import Privilege, Request
from repro.core.state import NodeStateName
from repro.exceptions import ProtocolError
from repro.runtime.cluster import LocalCluster
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.topology import star

from ..conftest import forced_node_backend


class Sink:
    """A network endpoint that just records what it receives."""

    def __init__(self, network, node_id):
        self.received = []
        network.register(node_id, lambda sender, message: self.received.append((sender, message)))


def build_pair():
    """Node 1 (not holding, NEXT -> 2) next to a recording endpoint 2."""
    engine = SimulationEngine()
    metrics = MetricsCollector()
    network = Network(engine, metrics=metrics)
    node = DagMutexNode(1, network, holding=False, next_node=2)
    peer = Sink(network, 2)
    return engine, network, metrics, node, peer


def build_holder():
    """A single idle token holder with a recording neighbour."""
    engine = SimulationEngine()
    metrics = MetricsCollector()
    network = Network(engine, metrics=metrics)
    node = DagMutexNode(3, network, holding=True)
    peer = Sink(network, 2)
    return engine, network, metrics, node, peer


def test_constructor_validates_holder_sink_consistency():
    engine = SimulationEngine()
    network = Network(engine)
    with pytest.raises(ProtocolError):
        DagMutexNode(1, network, holding=True, next_node=2)
    with pytest.raises(ProtocolError):
        DagMutexNode(2, network, holding=False, next_node=None)


def test_initial_states():
    _, _, _, node, _ = build_pair()
    assert node.state_name() is NodeStateName.NOT_REQUESTING
    assert node.next_node is not None
    assert not node.has_token()
    _, _, _, holder, _ = build_holder()
    assert holder.state_name() is NodeStateName.HOLDING_IDLE
    assert holder.next_node is None
    assert holder.has_token()


def test_holder_enters_immediately_without_messages():
    engine, network, metrics, holder, peer = build_holder()
    holder.request_cs()
    assert holder.in_critical_section
    assert not holder.holding  # P1 clears HOLDING before the critical section
    assert network.messages_sent == 0
    assert metrics.completed_entries == 0  # not yet exited
    holder.release_cs()
    assert holder.holding  # FOLLOW empty: keep the token
    assert metrics.completed_entries == 1


def test_request_sends_request_and_becomes_sink():
    engine, network, metrics, node, peer = build_pair()
    node.request_cs()
    engine.run()
    assert node.requesting
    assert node.next_node is None  # NEXT := 0 after sending its own request
    assert peer.received == [(1, Request(sender=1, origin=1))]
    assert node.state_name() is NodeStateName.REQUESTING


def test_double_request_rejected():
    _, _, _, node, _ = build_pair()
    node.request_cs()
    with pytest.raises(ProtocolError):
        node.request_cs()


def test_request_while_in_cs_rejected():
    _, _, _, holder, _ = build_holder()
    holder.request_cs()
    with pytest.raises(ProtocolError):
        holder.request_cs()


def test_release_without_entry_rejected():
    _, _, _, node, _ = build_pair()
    with pytest.raises(ProtocolError):
        node.release_cs()


def test_privilege_while_not_requesting_is_a_protocol_error():
    _, _, _, node, _ = build_pair()
    with pytest.raises(ProtocolError):
        node.on_message(2, Privilege())


def test_unexpected_message_type_rejected():
    _, _, _, node, _ = build_pair()
    with pytest.raises(ProtocolError):
        node.on_message(2, "not-a-protocol-message")


def test_privilege_grants_entry_after_request():
    engine, _, metrics, node, _ = build_pair()
    node.request_cs()
    engine.run()
    node.on_message(2, Privilege())
    assert node.in_critical_section
    assert node.cs_entries == 1
    assert node.state_name() is NodeStateName.EXECUTING


def test_intermediate_node_forwards_and_reverses_edge():
    """P2 at a non-sink: forward REQUEST(I, Y) to NEXT, then NEXT := X."""
    engine, network, _, node, peer = build_pair()
    node.on_message(5, Request(sender=5, origin=9))
    engine.run()
    # Forwarded on behalf of origin 9, with ourselves as the adjacent sender.
    assert peer.received == [(1, Request(sender=1, origin=9))]
    # Edge reversed toward the requester we heard from.
    assert node.next_node == 5


def test_requesting_sink_captures_follow():
    engine, _, _, node, _ = build_pair()
    node.request_cs()
    engine.run()
    node.on_message(7, Request(sender=7, origin=7))
    assert node.follow == 7
    assert node.next_node == 7
    assert node.state_name() is NodeStateName.REQUESTING_FOLLOW


def test_idle_holder_grants_token_directly_on_request():
    """Transition 8: an idle holder passes the PRIVILEGE to the origin."""
    engine, network, _, holder, peer = build_holder()
    holder.on_message(2, Request(sender=2, origin=2))
    engine.run()
    assert not holder.holding
    assert holder.next_node == 2
    assert peer.received == [(3, Privilege())]
    assert holder.state_name() is NodeStateName.NOT_REQUESTING


def test_idle_holder_grants_to_origin_not_to_sender():
    """The PRIVILEGE goes to the request's originator, not the forwarding hop."""
    engine = SimulationEngine()
    network = Network(engine)
    holder = DagMutexNode(3, network, holding=True)
    forwarder = Sink(network, 2)
    origin = Sink(network, 9)
    holder.on_message(2, Request(sender=2, origin=9))
    engine.run()
    assert origin.received == [(3, Privilege())]
    assert forwarder.received == []
    assert holder.next_node == 2


def test_executing_node_captures_follow_then_hands_over_on_release():
    engine, network, _, holder, peer = build_holder()
    holder.request_cs()  # enters immediately
    holder.on_message(2, Request(sender=2, origin=2))
    assert holder.follow == 2
    assert holder.state_name() is NodeStateName.EXECUTING_FOLLOW
    holder.release_cs()
    engine.run()
    assert holder.follow is None
    assert not holder.holding
    assert peer.received == [(3, Privilege())]


def test_release_with_empty_follow_keeps_token():
    _, network, _, holder, _ = build_holder()
    holder.request_cs()
    holder.release_cs()
    assert holder.holding
    assert network.messages_sent == 0


def test_snapshot_matches_variables():
    _, _, _, node, _ = build_pair()
    snapshot = node.snapshot()
    assert snapshot == {
        "HOLDING": False,
        "NEXT": 2,
        "FOLLOW": None,
        "requesting": False,
        "in_cs": False,
        "state": "N",
    }


def test_on_enter_callback_invoked():
    engine = SimulationEngine()
    network = Network(engine)
    entered = []
    node = DagMutexNode(1, network, holding=True)
    network.on_enter = lambda node_id, time: entered.append((node_id, time))
    node.request_cs()
    assert entered == [(1, 0.0)]


def test_repr_contains_key_variables():
    _, _, _, node, _ = build_pair()
    text = repr(node)
    assert "HOLDING=False" in text
    assert "NEXT=2" in text


# --------------------------------------------------------------------------- #
# a refused request writes nothing
# --------------------------------------------------------------------------- #
_INCONSISTENT = "sink without the token and without a request"


def _refused_then_repaired_in_the_simulator(node_backend):
    with forced_node_backend(node_backend):
        system = DagSystem(star(3), collect_metrics=True, record_trace=True)
    assert system.node_backend == node_backend
    node = system.node(2)
    node.next_node = None  # a sink with neither the token nor a request
    with pytest.raises(ProtocolError, match=_INCONSISTENT):
        node.request_cs()
    # Refused before the first write: no flag, no request record, no trace line.
    assert not node.requesting
    assert system.metrics.pending_requests == []
    assert list(system.trace) == []
    node.next_node = 1
    node.request_cs()
    system.run_until_quiescent()
    assert node.in_critical_section and system.metrics.pending_requests == []


def _refused_then_repaired_live():
    async def scenario():
        async with LocalCluster(star(3)) as cluster:
            node = cluster.node(2)
            node.next_node = None
            refused, granted = [], []
            with pytest.raises(ProtocolError, match=_INCONSISTENT):
                node.acquire_then(refused.append)
            # Nothing kept: not the flag, nor a callback a later entry would fire.
            assert not node.requesting and node._granted is None
            node.next_node = 1
            node.acquire_then(granted.append)
            assert (refused, granted) == ([], [2]) and node.in_critical_section

    asyncio.run(scenario())


@pytest.mark.parametrize("driver", ["object", "compact", "async"])
def test_a_refused_request_leaves_its_node_free_to_ask_again(driver):
    """A non-holding sink's request is refused, and once its NEXT is repaired
    the node asks again and enters: the refusal wedged nothing."""
    if driver == "async":
        _refused_then_repaired_live()
    else:
        _refused_then_repaired_in_the_simulator(driver)
