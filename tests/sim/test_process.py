"""Unit tests for the SimProcess base class."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.network import Network
from repro.sim.process import SimProcess


class EchoProcess(SimProcess):
    """Replies to every message with an 'echo:' prefix."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))
        if not str(message).startswith("echo:"):
            self.network.send(self.node_id, sender, f"echo:{message}")


@pytest.fixture
def system():
    engine = SimulationEngine()
    network = Network(engine)
    processes = {node_id: EchoProcess(node_id, network) for node_id in (1, 2)}
    return engine, network, processes


def test_processes_register_on_construction(system):
    _, network, _ = system
    assert network.node_ids == [1, 2]


def test_send_and_receive_roundtrip(system):
    engine, network, processes = system
    network.send(1, 2, "ping")
    engine.run()
    assert processes[2].received == [(1, "ping")]
    assert processes[1].received == [(2, "echo:ping")]


def test_now_reflects_engine_clock(system):
    engine, _, processes = system
    engine.schedule_lite(4.0, lambda _: None)
    engine.run()
    assert processes[1].now == engine.now == 4.0


def test_base_on_message_is_abstract():
    class Bare(SimProcess):  # SimProcess has no slots; a subclass gets a __dict__
        pass

    engine = SimulationEngine()
    network = Network(engine)
    process = Bare(7, network)
    with pytest.raises(NotImplementedError):
        process.on_message(1, "x")


def test_repr_contains_node_id(system):
    _, _, processes = system
    assert "node_id=1" in repr(processes[1])
