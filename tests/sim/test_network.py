"""Unit tests for the reliable FIFO network."""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import DagSystem
from repro.core.compact_state import CompactDagState
from repro.core.messages import Privilege, Request
from repro.exceptions import NetworkError, ProtocolError
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultInjectingNetwork
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.process import SimProcess
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


def test_self_send_is_always_rejected():
    engine, network, handlers = build_network()
    with pytest.raises(NetworkError):
        network.send(1, 1, "loop")


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
    # attach first, then register: neither a handler nor a process may
    # shadow the columns.  Ids outside the range stay registrable.
    network = Network(SimulationEngine())
    network.attach_columnar(Columns())
    with pytest.raises(NetworkError, match="columnar"):
        network.register(2, lambda s, m: None)
    with pytest.raises(NetworkError, match="columnar"):
        Untabled(2, network)
    network.register(4, lambda s, m: None)
    assert network.node_ids == [4]


def test_columnar_state_must_cover_a_contiguous_range():
    # Its ids are checked as ``start <= id < stop``, which only a step-1
    # range answers exactly.
    class Columns:
        node_range = range(1, 8, 2)

        def on_message(self, receiver, sender, message):
            pass

    network = Network(SimulationEngine())
    with pytest.raises(NetworkError, match=r"^columnar state must cover a contiguous id range"):
        network.attach_columnar(Columns())
    assert network._columnar is None


def columnar_network(mixed, traced=False):
    """The compact DAG columns for star(4) attached as ids 1..4; ``mixed``
    registers an object handler (id 9) beside them, ``traced`` attaches a
    trace recorder (every delivery then goes through ``_deliver``)."""
    engine = SimulationEngine()
    network = Network(engine, trace=TraceRecorder() if traced else None)
    assert (network._lane is None) is traced
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


#: Every way an id can miss the columns of star(4) (ids 1..4).
NOT_A_COLUMNAR_ID = [0, -1, 5, "a", None]
NETWORKS = pytest.mark.parametrize(
    "mixed, traced",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["columnar-only-lane", "mixed-lane", "columnar-only-traced", "mixed-traced"],
)


@NETWORKS
@pytest.mark.parametrize("bad", NOT_A_COLUMNAR_ID, ids=repr)
def test_a_columnar_send_refuses_an_id_outside_the_columns(mixed, traced, bad):
    # The early exit compares ints with the columns' bounds; whatever that
    # refuses gets the full body's diagnosis, with the text it always had.
    engine, network, state, outsider = columnar_network(mixed, traced)
    with pytest.raises(NetworkError, match=rf"^unknown receiver node {bad}$"):
        network.send(1, bad, Request(1, 1))
    with pytest.raises(NetworkError, match=rf"^unknown sender node {bad}$"):
        network.send(bad, 2, Request(1, 1))
    with pytest.raises(NetworkError, match=rf"^unknown sender node {bad}$"):
        network.send(bad, bad, Request(1, 1))  # both unknown: the sender is named
    assert network.messages_sent == 0 and engine.pending_events == 0


@NETWORKS
def test_a_columnar_self_send_is_refused(mixed, traced):
    engine, network, state, outsider = columnar_network(mixed, traced)
    for node_id in (1, 4):
        with pytest.raises(
            NetworkError, match=rf"^node {node_id} attempted to send a message to itself$"
        ):
            network.send(node_id, node_id, Request(node_id, node_id))
    assert network.messages_sent == 0 and engine.pending_events == 0


@NETWORKS
def test_a_bool_id_is_the_node_it_equals(mixed, traced):
    # bool is an int subclass and ``True in range(1, 5)`` holds, so the full
    # body's range test accepts it, and the columns index it as node 1.
    engine, network, state, _ = columnar_network(mixed, traced)
    network.send(True, 2, "x")
    with pytest.raises(
        ProtocolError, match=r"^node 2 received unexpected message 'x' from True$"
    ):
        engine.run()
    state.request_cs(3)  # REQUEST 3 -> 1 (the idle holder)
    network.send(3, True, Privilege())  # a PRIVILEGE node 1 never asked for
    engine.run(max_events=1)
    with pytest.raises(ProtocolError, match=r"^node True received the PRIVILEGE message"):
        engine.run()


@NETWORKS
def test_a_float_id_passes_the_range_test_as_it_equals_an_id(mixed, traced):
    # A float takes the full body's exact range test: 2.0 equals node 2 and
    # is accepted, then fails in the handler, which indexes the columns with
    # it; 2.5 equals no id and is refused at send.
    engine, network, state, _ = columnar_network(mixed, traced)
    with pytest.raises(NetworkError, match=r"^unknown receiver node 2.5$"):
        network.send(1, 2.5, Request(1, 1))
    with pytest.raises(NetworkError, match=r"^unknown sender node 2.5$"):
        network.send(2.5, 1, Request(2, 2))
    network.send(1, 2.0, Request(1, 1))
    with pytest.raises(TypeError, match="indices must be integers"):
        engine.run()
    # As a sender it is only passed along, so the delivery goes through.
    network.send(2.0, 1, "x")
    with pytest.raises(
        ProtocolError, match=r"^node 1 received unexpected message 'x' from 2.0$"
    ):
        engine.run()


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


# --------------------------------------------------------------------------- #
# delivery to a process: a registered id maps to the process object itself,
# and _deliver calls what its class's dispatch_table (built once per class
# from _MESSAGE_HANDLERS, each name resolved on that class) names for the
# message's type as handler(process, sender, message), on_message otherwise.
# Each test below pins one thing a delivery must mean.
# --------------------------------------------------------------------------- #
class Tabled(SimProcess):
    """Ints through the class table, everything else through on_message."""

    _MESSAGE_HANDLERS = {int: "_on_int"}

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []

    def _on_int(self, sender, message):
        self.received.append(("table", sender, message))

    def on_message(self, sender, message):
        self.received.append(("on_message", sender, message))


class Overriding(Tabled):
    """Overrides the handler, not the table: the override is what runs."""

    def _on_int(self, sender, message):
        self.received.append(("override", sender, message))


class Untabled(SimProcess):
    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


def test_each_class_resolves_its_own_table_once():
    assert SimProcess.dispatch_table == {} and Untabled.dispatch_table == {}
    assert Tabled.dispatch_table == {int: Tabled._on_int}
    assert Overriding.dispatch_table == {int: Overriding._on_int}
    assert Overriding._on_int is not Tabled._on_int


def test_table_types_reach_the_class_handler_and_the_rest_on_message():
    engine = SimulationEngine()
    network = Network(engine)
    base, override, plain = Tabled(1, network), Overriding(2, network), Untabled(3, network)
    assert network._receivers == {1: base, 2: override, 3: plain}
    for receiver in (1, 2, 3):
        sender = 1 if receiver != 1 else 2
        network.send(sender, receiver, 7)
        network.send(sender, receiver, "seven")
    engine.run()
    assert base.received == [("table", 2, 7), ("on_message", 2, "seven")]
    assert override.received == [("override", 1, 7), ("on_message", 1, "seven")]
    assert plain.received == [(1, 7), (1, "seven")]


def test_a_registered_callable_beside_processes_gets_sender_and_message():
    engine = SimulationEngine()
    network = Network(engine)
    process = Tabled(1, network)
    calls = []
    network.register(2, lambda sender, message: calls.append((sender, message)))
    network.send(1, 2, 7)
    network.send(2, 1, 8)
    engine.run()
    assert calls == [(1, 7)]
    assert process.received == [("table", 2, 8)]


def test_an_unregistered_receiver_keeps_its_error_text():
    # A non-constant latency keeps the delivery on the heap, where _deliver
    # resolves the receiver when it fires; a lane entry resolved it at send.
    engine = SimulationEngine()
    network = Network(engine, latency=UniformLatency(0.5, 2.0, rng=SeededRNG(1)))
    Tabled(1, network)
    Tabled(2, network)
    network.send(1, 2, 7)
    del network._receivers[2]  # nothing public removes a node
    with pytest.raises(
        NetworkError, match=r"^message from 1 addressed to unregistered node 2$"
    ):
        engine.run()


def test_a_dag_node_refuses_an_unknown_type_with_the_same_text():
    system = DagSystem(star(4))
    system.network.send(1, 2, "bogus")
    with pytest.raises(
        ProtocolError, match=r"^node 2 received unexpected message 'bogus' from 1$"
    ):
        system.run()


def test_receive_trace_records_are_unchanged():
    system = DagSystem(star(3), record_trace=True)
    system.request(3)
    system.run_until_quiescent()
    receives = [
        (event.time, event.node, event.detail)
        for event in system.trace
        if event.category == "receive"
    ]
    assert receives == [
        (1.0, 1, {"sender": 3, "message": "REQUEST(3,3)"}),
        (2.0, 3, {"sender": 1, "message": "PRIVILEGE"}),
    ]


def test_the_fault_network_still_fences_a_process_delivery_by_sequence():
    system = DagSystem(star(3), network_factory=FaultInjectingNetwork)
    network = system.network
    system.request(3)  # REQUEST(3,3) toward the holder, in flight
    network.fence()
    system.run_until_quiescent()
    assert [label for *_, label in network.fault_log.fenced_messages] == ["REQUEST(3,3)"]
    assert system.node(1).holding and system.node(3).requesting
    # A send after the fence is delivered through the class table as usual.
    network.send(3, 1, Request(3, 3))
    system.run_until_quiescent()
    assert system.node(3).in_critical_section
