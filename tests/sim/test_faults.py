"""Unit tests for the fault-injecting network."""

from __future__ import annotations

import pytest

from repro.core.messages import Request
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultInjectingNetwork


class Recorder:
    def __init__(self):
        self.received = []

    def __call__(self, sender, message):
        self.received.append((sender, message))


@pytest.fixture
def network():
    engine = SimulationEngine()
    network = FaultInjectingNetwork(engine)
    handlers = {node: Recorder() for node in (1, 2, 3)}
    for node, handler in handlers.items():
        network.register(node, handler)
    return engine, network, handlers


def test_without_faults_behaves_like_a_normal_network(network):
    engine, net, handlers = network
    net.send(1, 2, "a")
    engine.run()
    assert handlers[2].received == [(1, "a")]
    assert net.fault_log.total_faults == 0


def test_drop_next_discards_exactly_the_requested_count(network):
    engine, net, handlers = network
    net.drop_next_of_kind("request", count=2)
    for index in range(4):
        net.send(1, 2, Request(sender=1, origin=index))
    engine.run()
    assert [message.origin for _, message in handlers[2].received] == [2, 3]
    assert len(net.fault_log.dropped_messages) == 2


def test_drop_next_rejects_non_positive_count(network):
    _, net, _ = network
    with pytest.raises(ValueError):
        net.drop_next_of_kind("request", count=0)


def test_crashed_node_neither_sends_nor_receives(network):
    engine, net, handlers = network
    net.crash(2)
    net.send(1, 2, "to-crashed")
    net.send(2, 3, "from-crashed")
    engine.run()
    assert handlers[2].received == []
    assert handlers[3].received == []
    assert len(net.fault_log.suppressed_deliveries) == 1
    assert len(net.fault_log.suppressed_sends) == 1
    assert net.crashed_nodes == {2}


def test_messages_in_flight_when_crash_happens_are_lost(network):
    engine, net, handlers = network
    net.send(1, 2, "in-flight")
    net.crash(2)
    engine.run()
    assert handlers[2].received == []


def test_recover_restores_participation_but_not_lost_messages(network):
    engine, net, handlers = network
    net.crash(3)
    net.send(1, 3, "lost")
    engine.run()
    net.restart(3)
    net.send(1, 3, "after-recovery")
    engine.run()
    assert [message for _, message in handlers[3].received] == ["after-recovery"]


def test_fault_log_counts_every_category(network):
    engine, net, handlers = network
    net.drop_next_of_kind("request")
    net.send(1, 2, Request(sender=1, origin=1))
    net.crash(3)
    net.send(3, 1, "suppressed-send")
    net.send(2, 3, "suppressed-delivery")
    engine.run()
    assert net.fault_log.total_faults == 3


@pytest.mark.parametrize("lose", ["crash-in-flight", "fence"])
def test_message_lost_at_delivery_leaves_nothing_in_flight(network, lose):
    engine, net, handlers = network
    net.send(1, 2, "doomed")
    if lose == "fence":
        net.fence()
    else:
        net.crash(2)
    engine.run()
    assert handlers[2].received == []
    assert engine.pending_events == 0
    assert net.messages_sent == 1
    assert net.messages_in_flight == 0
