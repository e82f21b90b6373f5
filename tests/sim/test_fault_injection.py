"""Units for the extended fault-injection surface.

``test_faults.py`` covers the original drop/crash primitives; this module
covers what the FaultSpec tier added: typed message-kind drops, seeded random
drops, the crash fence, restart semantics, and the in-flight privilege
counter the recovery watchdog relies on.
"""

from __future__ import annotations

import pytest

from repro.core.messages import Request
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultInjectingNetwork, message_kind
from repro.sim.rng import SeededRNG


class Recorder:
    def __init__(self):
        self.received = []

    def __call__(self, sender, message):
        self.received.append((sender, message))


class Privilege:
    """Stands in for the protocol's PRIVILEGE message (classified by name)."""


@pytest.fixture
def network():
    engine = SimulationEngine()
    network = FaultInjectingNetwork(engine)
    handlers = {node: Recorder() for node in (1, 2, 3)}
    for node, handler in handlers.items():
        network.register(node, handler)
    return engine, network, handlers


# --------------------------------------------------------------------------- #
# message-kind classification
# --------------------------------------------------------------------------- #
def test_message_kind_classifies_by_class_name():
    assert message_kind(Privilege) == "privilege"
    assert message_kind(Request) == "request"
    assert message_kind(str) == "other"


def test_kind_classifier_covers_the_baseline_analogues():
    for name in ("CentralGrant", "RAReply", "LamportAck", "MaekawaLocked"):
        cls = type(name, (), {})
        assert message_kind(cls) == "privilege", name


# --------------------------------------------------------------------------- #
# typed and random drops
# --------------------------------------------------------------------------- #
def test_drop_next_of_kind_hits_only_that_kind(network):
    engine, net, handlers = network
    net.drop_next_of_kind("privilege")
    net.send(1, 2, Request(sender=1, origin=1))
    net.send(1, 2, Privilege())
    net.send(1, 2, Privilege())
    engine.run()
    kinds = [type(message).__name__ for _, message in handlers[2].received]
    assert kinds == ["Request", "Privilege"]  # first privilege dropped
    assert len(net.fault_log.dropped_messages) == 1


def test_drop_next_of_kind_rejects_unknown_kinds(network):
    _, net, _ = network
    with pytest.raises(ValueError):
        net.drop_next_of_kind("gossip")
    with pytest.raises(ValueError):
        net.drop_next_of_kind("privilege", count=0)


def test_random_drops_are_reproducible_for_the_same_seed(network):
    def run(seed):
        engine = SimulationEngine()
        net = FaultInjectingNetwork(engine)
        sink = Recorder()
        net.register(1, Recorder())
        net.register(2, sink)
        net.set_drop_rate(0.3, SeededRNG(seed, label="test-faults"))
        for index in range(40):
            net.send(1, 2, index)
        engine.run()
        return [m for _, m in sink.received], net.fault_log.digest()

    first_messages, first_digest = run(7)
    again_messages, again_digest = run(7)
    other_messages, _ = run(8)
    assert first_messages == again_messages
    assert first_digest == again_digest
    assert first_messages != other_messages  # the seed actually matters
    assert 0 < len(first_messages) < 40  # some but not all dropped


def test_drop_rate_must_be_below_one(network):
    _, net, _ = network
    with pytest.raises(ValueError):
        net.set_drop_rate(1.0, SeededRNG(0, label="x"))


# --------------------------------------------------------------------------- #
# crash-stop, fence, restart
# --------------------------------------------------------------------------- #
def test_fence_discards_messages_already_in_flight(network):
    engine, net, handlers = network
    net.send(1, 2, "before-fence")
    net.fence()
    net.send(1, 2, "after-fence")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["after-fence"]
    assert len(net.fault_log.fenced_messages) == 1


def test_restart_semantics_lost_stays_lost(network):
    # Crash-stop, not pause: messages sent while the node was down are
    # dropped at SEND time, so a later restart cannot resurrect them.
    engine, net, handlers = network
    net.crash(2)
    net.send(1, 2, "while-down")
    engine.run()
    net.restart(2)
    engine.run()
    assert handlers[2].received == []
    net.send(1, 2, "after-restart")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["after-restart"]
    assert len(net.fault_log.suppressed_deliveries) == 1
    assert net.fault_log.crashes and net.fault_log.restarts
    assert net.crashed_nodes == set()


def test_privilege_in_flight_counter_tracks_deliveries(network):
    engine, net, handlers = network
    net.send(1, 2, Privilege())
    assert net.privilege_in_flight == 1
    engine.run()
    assert net.privilege_in_flight == 0


def test_privilege_in_flight_counter_survives_drops_and_fences(network):
    engine, net, _ = network
    # A dropped privilege never becomes in-flight.
    net.drop_next_of_kind("privilege")
    net.send(1, 2, Privilege())
    assert net.privilege_in_flight == 0
    # A fenced privilege decrements on (non-)delivery.
    net.send(1, 2, Privilege())
    assert net.privilege_in_flight == 1
    net.fence()
    engine.run()
    assert net.privilege_in_flight == 0


def test_fault_listener_sees_every_category(network):
    engine, net, _ = network
    seen = []
    net.fault_listener = lambda category, detail: seen.append(category)
    net.drop_next_of_kind("request")
    net.send(1, 2, Request(sender=1, origin=1))
    net.crash(3)
    net.send(3, 1, "suppressed-send")
    net.send(2, 3, "suppressed-delivery")
    net.restart(3)
    engine.run()
    assert set(seen) == {
        "dropped",
        "crash",
        "suppressed-send",
        "suppressed-delivery",
        "restart",
    }


def test_fault_log_digest_is_canonical(network):
    engine, net, _ = network
    net.drop_next_of_kind("request")
    net.send(1, 2, Request(sender=1, origin=1))
    engine.run()
    digest = net.fault_log.digest()
    assert len(digest) == 64
    assert digest == net.fault_log.digest()  # stable
    counts = net.fault_log.counts()
    assert counts["dropped_messages"] == 1
    assert net.fault_log.total_faults == 1
