"""Tests for the network's FIFO epsilon clamp, partition/heal bookkeeping,
and the two entry forms delivering identically whatever is attached."""

from __future__ import annotations

import functools

import pytest

from repro.baselines.dag_adapter import DagSystem
from repro.exceptions import ExperimentError, NetworkError
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultInjectingNetwork
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.rng import SeededRNG
from repro.sim.trace import TraceRecorder
from repro.topology import star
from repro.workload.driver import ExperimentDriver
from repro.workload.generator import WorkloadGenerator

from ..conftest import forced_node_backend


class Recorder:
    def __init__(self):
        self.received = []

    def __call__(self, sender, message):
        self.received.append((sender, message))


def build(latency=None, metrics=None, trace=None, nodes=(1, 2, 3)):
    engine = SimulationEngine()
    network = Network(engine, latency=latency, metrics=metrics, trace=trace)
    handlers = {}
    for node_id in nodes:
        handlers[node_id] = Recorder()
        network.register(node_id, handlers[node_id])
    return engine, network, handlers


# --------------------------------------------------------------------------- #
# FIFO epsilon clamp
# --------------------------------------------------------------------------- #
class _ReorderingLatency(UniformLatency):
    """Deterministic adversarial latency: later sends draw shorter delays."""

    def __init__(self, delays):
        self._scripted = list(delays)

    def delay(self, sender, receiver):
        return self._scripted.pop(0)


def test_fifo_clamp_pushes_reordered_delivery_after_predecessor():
    engine, network, handlers = build(latency=_ReorderingLatency([10.0, 1.0]))
    network.send(1, 2, "first")
    network.send(1, 2, "second")  # shorter draw: would overtake without clamp
    engine.run()
    assert [m for _, m in handlers[2].received] == ["first", "second"]
    # The clamped delivery lands just after the first one, not at t=1.
    assert engine.now == pytest.approx(10.0, abs=1e-6)


def test_fifo_clamp_applies_on_observed_path_too():
    metrics = MetricsCollector()
    engine, network, handlers = build(
        latency=_ReorderingLatency([10.0, 1.0]), metrics=metrics
    )
    network.send(1, 2, "first")
    network.send(1, 2, "second")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["first", "second"]
    assert metrics.total_messages == 2


def test_fifo_clamp_is_per_channel_not_global():
    # Channel (1, 3) is slow; channel (2, 3) must not be clamped behind it.
    engine, network, handlers = build(latency=_ReorderingLatency([10.0, 1.0]))
    network.send(1, 3, "slow")
    network.send(2, 3, "fast")
    engine.run()
    assert [m for _, m in handlers[3].received] == ["fast", "slow"]


def test_random_latency_heavy_fifo_stress():
    rng = SeededRNG(99, label="clamp-stress")
    engine, network, handlers = build(latency=UniformLatency(0.01, 5.0, rng=rng))
    for index in range(200):
        network.send(1, 2, index)
        network.send(3, 2, 1000 + index)
    engine.run()
    from_1 = [m for s, m in handlers[2].received if s == 1]
    from_3 = [m for s, m in handlers[2].received if s == 3]
    assert from_1 == list(range(200))
    assert from_3 == [1000 + i for i in range(200)]


# --------------------------------------------------------------------------- #
# partition / heal
# --------------------------------------------------------------------------- #
def test_partitioned_sends_count_as_dropped():
    engine, network, handlers = build()
    network.partition(1, 2)
    network.send(1, 2, "a")
    network.send(1, 2, "b")
    engine.run()
    assert handlers[2].received == []
    assert network.messages_sent == 2
    assert network.messages_in_flight == 0


def test_messages_dropped_before_heal_never_deliver_after_heal():
    engine, network, handlers = build()
    network.partition(1, 2)
    network.send(1, 2, "lost-1")
    network.send(1, 2, "lost-2")
    network.heal(1, 2)
    network.send(1, 2, "after-heal")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["after-heal"]
    assert (network.messages_sent, network.messages_in_flight) == (3, 0)


def test_partition_drop_counting_on_observed_path():
    metrics = MetricsCollector()
    engine, network, handlers = build(metrics=metrics)
    network.partition(1, 2)
    network.send(1, 2, "lost")
    engine.run()
    # The send is counted as protocol traffic (the paper counts sends), but
    # never delivered.
    assert metrics.total_messages == 1
    assert network.messages_in_flight == 0
    assert handlers[2].received == []


def test_partition_heal_is_idempotent():
    engine, network, handlers = build()
    network.partition(1, 2)
    network.partition(1, 2)
    network.heal(1, 2)
    network.heal(1, 2)
    network.heal(3, 1)  # healing a never-partitioned channel is a no-op
    network.send(1, 2, "through")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["through"]


def test_partition_with_random_latency_fast_path():
    engine, network, handlers = build(
        latency=UniformLatency(0.5, 2.0, rng=SeededRNG(3))
    )
    network.partition(1, 2)
    network.send(1, 2, "lost")
    network.send(2, 1, "reverse-ok")
    engine.run()
    assert handlers[2].received == []
    assert [m for _, m in handlers[1].received] == ["reverse-ok"]
    assert network.messages_in_flight == 0


# --------------------------------------------------------------------------- #
# observers attached or not: same deliveries
# --------------------------------------------------------------------------- #
def _drive(metrics=None, trace=None):
    engine, network, handlers = build(metrics=metrics, trace=trace)
    network.send(1, 2, "a")
    network.send(2, 3, "b")
    network.send(1, 2, "c")
    engine.run()
    order = [(node, s, m) for node, h in handlers.items() for s, m in h.received]
    return engine.now, network.messages_sent, network.messages_in_flight, order


def test_fast_and_observed_paths_deliver_identically():
    fast = _drive()
    observed = _drive(metrics=MetricsCollector(), trace=TraceRecorder())
    assert fast == observed


# --------------------------------------------------------------------------- #
# whatever is attached: the same events in the same order, a lane entry or
# a _deliver entry each
# --------------------------------------------------------------------------- #
_LATENCIES = {
    "constant": lambda: ConstantLatency(1.0),
    "uniform": lambda: UniformLatency(0.1, 2.0, rng=SeededRNG(7, label="one-path")),
}
# name -> (collect_metrics, record_trace, network_factory, partitioned)
_ATTACHMENTS = {
    "bare": (False, False, None, False),
    "metrics": (True, False, None, False),
    "trace": (False, True, None, False),
    "metrics+trace": (True, True, None, False),
    "fault-network-unarmed": (False, False, FaultInjectingNetwork, False),
    "partition": (False, False, None, True),
}
# What an attachment must replay exactly like (on the object backend): the
# bare network, or for a partition the same window on a metrics-attached
# network, whose sends always take the full body of ``Network.send``.
_REFERENCES = {"partition": "metrics+partition"}
_SETUPS = {**_ATTACHMENTS, "metrics+partition": (True, False, None, True)}


def _replay_star50(latency, attachment, node_backend):
    collect_metrics, record_trace, network_factory, partitioned = _SETUPS[attachment]
    topology = star(50)
    workload = WorkloadGenerator(topology.nodes, seed=42).poisson(
        total_requests=200, mean_interarrival=2.0
    )
    with forced_node_backend(node_backend):
        system = DagSystem(
            topology,
            latency=_LATENCIES[latency](),
            collect_metrics=collect_metrics,
            record_trace=record_trace,
            network_factory=network_factory,
        )
    assert system.node_backend == node_backend
    engine, network = system.engine, system.network
    # Constant latency with nobody watching deliveries: ready-to-fire calls
    # go to the scheduler's FIFO lane.  A trace recorder, a fault network or
    # any other latency model pushes _deliver entries to the heap.
    resolved = latency == "constant" and not record_trace and network_factory is None
    lane_append = engine._lane.append
    assert (network._enqueue == lane_append) is resolved
    # The lane's owner takes send's early exit unless metrics watch its sends.
    direct = resolved and not collect_metrics
    assert network._direct is direct
    flags = []
    if partitioned:
        # Opened and healed mid-replay: the channel drops node 7's request,
        # and the early exit is off exactly while the partition is open.
        def toggle(action):
            action(7, 1)
            flags.append(network._direct)

        engine.schedule_lite(50.0, toggle, network.partition)
        engine.schedule_lite(150.0, toggle, network.heal)
    pushed = []

    def recording(enqueue):
        def record(entry):
            pushed.append(entry)
            enqueue(entry)

        return record

    # Both ways in: the network's enqueue (lane or heap) and the engine's
    # heap push, which the driver's releases take.
    network._enqueue = recording(network._enqueue)
    engine._push = recording(engine._push)
    driver = ExperimentDriver(system, workload)
    if partitioned:
        with pytest.raises(ExperimentError, match=r"did not complete; nodes still waiting"):
            driver.run()
        assert flags == [False, direct] and network._dropped == 1
    else:
        driver.run()
    assert engine.pending_events == 0
    # Everything pushed during the run was popped: message deliveries and the
    # driver's releases, which are (time, sequence, callback, payload).
    deliveries = [entry for entry in pushed if entry[2] != driver._release]
    assert all(len(entry) == 4 for entry in pushed if entry[2] == driver._release)
    assert len(deliveries) == network.messages_sent - network._dropped
    assert network.messages_in_flight == 0
    for entry in deliveries:
        if resolved:
            # (time, sequence, handler, target, sender, message): the
            # receiver's table entry for the message's type, bound at send.
            _time, _sequence, handler, target, _sender, message = entry
            if node_backend == "object":
                assert handler is type(target).dispatch_table[type(message)]
            else:
                assert target in network._columnar.node_range
                assert handler == network._columnar.dispatch_table[type(message)]
        else:
            # Every delivery goes through the network's one _deliver with the
            # engine sequence in its payload.
            _time, sequence, callback, payload = entry
            assert callback == network._deliver
            assert len(payload) == 4 and payload[3] == sequence
    return {
        "entry_order": list(driver.entry_order),
        "finished_at": engine.now,
        "messages_sent": network.messages_sent,
        "dropped": network._dropped,
        "processed_events": engine.processed_events,
        "final_sequence": engine._sequence,
    }


@functools.lru_cache(maxsize=None)
def _object_replay(latency, attachment):
    return _replay_star50(latency, attachment, "object")


@pytest.mark.parametrize("node_backend", ["object", "compact"])
@pytest.mark.parametrize("attachment", list(_ATTACHMENTS))
@pytest.mark.parametrize("latency", list(_LATENCIES))
def test_one_message_path_whatever_is_attached(latency, attachment, node_backend):
    reference = _object_replay(latency, _REFERENCES.get(attachment, "bare"))
    assert _replay_star50(latency, attachment, node_backend) == reference


def test_fast_path_delivery_to_unregistered_node_raises():
    # On the heap (non-constant latency) the receiver is resolved at delivery.
    engine, network, handlers = build(latency=UniformLatency(0.5, 2.0, rng=SeededRNG(1)))
    network.send(1, 3, "late")
    del network._receivers[3]  # nothing public removes a node; the check stays
    with pytest.raises(NetworkError, match=r"^message from 1 addressed to unregistered node 3$"):
        engine.run()


def test_node_ids_cache_tracks_register_unregister():
    engine, network, handlers = build()
    assert network.node_ids == [1, 2, 3]
    network.register(9, lambda s, m: None)
    network.register(4, lambda s, m: None)
    assert network.node_ids == [1, 2, 3, 9, 4]
