"""Unit tests for the reliable FIFO network."""

from __future__ import annotations

import pytest

from repro.core.compact_state import CompactDagState
from repro.exceptions import NetworkError, ProtocolError
from repro.sim.engine import SimulationEngine
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.rng import SeededRNG
from repro.sim.trace import TraceRecorder
from repro.topology import star


class Recorder:
    """Message handler that records (sender, message) pairs."""

    def __init__(self):
        self.received = []

    def __call__(self, sender, message):
        self.received.append((sender, message))


def build_network(latency=None, metrics=None, trace=None):
    engine = SimulationEngine()
    network = Network(engine, latency=latency, metrics=metrics, trace=trace)
    handlers = {}
    for node_id in (1, 2, 3):
        handlers[node_id] = Recorder()
        network.register(node_id, handlers[node_id])
    return engine, network, handlers


def test_basic_delivery():
    engine, network, handlers = build_network()
    network.send(1, 2, "hello")
    engine.run()
    assert handlers[2].received == [(1, "hello")]
    assert network.messages_sent == 1
    assert network.messages_in_flight == 0


def test_default_latency_is_one_time_unit():
    engine, network, handlers = build_network()
    network.send(1, 2, "ping")
    engine.run()
    assert engine.now == 1.0


def test_unknown_sender_and_receiver_rejected():
    engine, network, handlers = build_network()
    with pytest.raises(NetworkError):
        network.send(99, 1, "x")
    with pytest.raises(NetworkError):
        network.send(1, 99, "x")


def test_self_send_rejected_by_default():
    engine, network, handlers = build_network()
    with pytest.raises(NetworkError):
        network.send(1, 1, "loop")


def test_self_send_allowed_when_enabled():
    engine = SimulationEngine()
    network = Network(engine, allow_self_send=True)
    recorder = Recorder()
    network.register(1, recorder)
    network.send(1, 1, "loop")
    engine.run()
    assert recorder.received == [(1, "loop")]


def test_duplicate_registration_rejected():
    engine, network, handlers = build_network()
    with pytest.raises(NetworkError):
        network.register(1, lambda s, m: None)


def test_columnar_id_cannot_also_be_registered_in_either_order():
    class Columns:
        node_range = range(1, 4)

        def on_message(self, receiver, sender, message):
            pass

    # register first, then attach: the columns may not cover a registered id.
    engine, network, handlers = build_network()
    with pytest.raises(NetworkError):
        network.attach_columnar(Columns())
    # attach first, then register: a handler (or dispatch table) may not
    # shadow the columns.  Ids outside the range stay registrable.
    network = Network(SimulationEngine())
    network.attach_columnar(Columns())
    with pytest.raises(NetworkError, match="columnar"):
        network.register(2, lambda s, m: None)
    with pytest.raises(NetworkError):
        network.register_dispatch_table(2, {})
    network.register(4, lambda s, m: None)
    assert network.node_ids == [4]


def columnar_network(mixed):
    """The compact DAG columns for star(4) attached as ids 1..4; ``mixed``
    registers an object handler (id 9) beside them."""
    engine = SimulationEngine()
    network = Network(engine)
    state = CompactDagState(star(4), network)
    network.attach_columnar(state)
    outsider = Recorder()
    if mixed:
        network.register(9, outsider)
    return engine, network, state, outsider


@pytest.mark.parametrize("mixed", [False, True], ids=["columnar-only", "mixed"])
def test_columnar_endpoints_keep_every_refusal_and_its_text(mixed):
    engine, network, state, outsider = columnar_network(mixed)
    with pytest.raises(NetworkError, match=r"^unknown sender node 77$"):
        network.send(77, 1, "x")
    with pytest.raises(NetworkError, match=r"^unknown receiver node 77$"):
        network.send(1, 77, "x")
    with pytest.raises(NetworkError, match=r"^unknown sender node 0$"):
        network.send(0, 5, "x")  # both unknown: the sender is named
    with pytest.raises(NetworkError, match=r"^node 2 attempted to send a message to itself$"):
        network.send(2, 2, "x")
    assert network.messages_sent == 0
    # A type the columns' table does not know falls back to on_message,
    # which refuses it as it always has.
    network.send(1, 2, "bogus")
    with pytest.raises(
        ProtocolError, match=r"^node 2 received unexpected message 'bogus' from 1$"
    ):
        engine.run()
    if mixed:
        with pytest.raises(NetworkError, match=r"^unknown receiver node 5$"):
            network.send(9, 5, "x")
        network.send(3, 9, "out")
        network.send(9, 3, "in")
        with pytest.raises(
            ProtocolError, match=r"^node 3 received unexpected message 'in' from 9$"
        ):
            engine.run()
        assert outsider.received == [(3, "out")]


@pytest.mark.parametrize("mixed", [False, True], ids=["columnar-only", "mixed"])
def test_columnar_deliveries_reach_the_protocol_handlers(mixed):
    engine, network, state, _ = columnar_network(mixed)
    state.request_cs(3)  # REQUEST 3 -> 1 (idle holder), PRIVILEGE 1 -> 3
    engine.run()
    assert network.messages_sent == 2
    assert state.total_entries == 1
    assert state.snapshot(3)["NEXT"] is None and state.snapshot(1)["NEXT"] == 3


def test_columnar_state_without_a_table_is_delivered_through_on_message():
    class Columns:
        node_range = range(1, 4)
        received = []

        def on_message(self, receiver, sender, message):
            self.received.append((receiver, sender, message))

    engine = SimulationEngine()
    network = Network(engine)
    network.attach_columnar(Columns())
    network.send(1, 3, "hello")
    engine.run()
    assert Columns.received == [(3, 1, "hello")]


def test_fifo_order_with_constant_latency():
    engine, network, handlers = build_network(latency=ConstantLatency(2.0))
    for index in range(5):
        network.send(1, 2, index)
    engine.run()
    assert [message for _, message in handlers[2].received] == [0, 1, 2, 3, 4]


def test_fifo_order_preserved_with_random_latency():
    """Random delays must never reorder messages on one channel."""
    rng = SeededRNG(123, label="latency-test")
    engine, network, handlers = build_network(latency=UniformLatency(0.1, 10.0, rng=rng))
    for index in range(50):
        network.send(1, 2, index)
    engine.run()
    assert [message for _, message in handlers[2].received] == list(range(50))


def test_independent_channels_can_interleave():
    engine, network, handlers = build_network(
        latency=UniformLatency(0.1, 5.0, rng=SeededRNG(5))
    )
    network.send(1, 3, "from-1")
    network.send(2, 3, "from-2")
    engine.run()
    senders = {sender for sender, _ in handlers[3].received}
    assert senders == {1, 2}


def test_metrics_observe_sends():
    metrics = MetricsCollector()
    engine, network, handlers = build_network(metrics=metrics)
    network.send(1, 2, "a")
    network.send(2, 3, "b")
    engine.run()
    assert metrics.total_messages == 2


def test_trace_records_send_and_receive():
    trace = TraceRecorder()
    engine, network, handlers = build_network(trace=trace)
    network.send(1, 2, "a")
    engine.run()
    assert [event.category for event in trace] == ["send", "receive"]


def test_partition_drops_messages_silently():
    engine, network, handlers = build_network()
    network.partition(1, 2)
    network.send(1, 2, "lost")
    engine.run()
    assert handlers[2].received == []
    assert network.messages_in_flight == 0


def test_heal_restores_delivery():
    engine, network, handlers = build_network()
    network.partition(1, 2)
    network.send(1, 2, "lost")
    network.heal(1, 2)
    network.send(1, 2, "found")
    engine.run()
    assert [message for _, message in handlers[2].received] == ["found"]


def test_partition_is_directional():
    engine, network, handlers = build_network()
    network.partition(1, 2)
    network.send(2, 1, "reverse")
    engine.run()
    assert handlers[1].received == [(2, "reverse")]


def test_node_ids_lists_registered_nodes():
    engine, network, handlers = build_network()
    assert network.node_ids == [1, 2, 3]
