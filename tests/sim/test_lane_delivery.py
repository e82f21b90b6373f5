"""Where a delivery is resolved: at send on the lane, at delivery on the heap.

A network that owns the scheduler's FIFO lane (constant latency, no trace
recorder, the base ``Network._deliver``) queues each message as the call that
delivers it, ``(time, sequence, handler, target, sender, message)``, and the
drain fires it with no ``_deliver`` frame.  A network that watches
deliveries — any other latency, a trace recorder, a fault injector — keeps
the heap entry ``(time, sequence, _deliver, payload)``.  Exact counts, no
clock: ``_deliver`` runs 0 times on the lane and once per message on the
heap, and the replays agree on every entry, event and message.  Either way
``messages_in_flight`` is exact at every instant, not only once the run is
over: the lane's owner reads it off the lane, everyone else counts.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.baselines.dag_adapter import DagSystem
from repro.sim.faults import FaultInjectingNetwork
from repro.sim.engine import SimulationEngine
from repro.sim.latency import UniformLatency
from repro.sim.network import Network
from repro.sim.rng import SeededRNG
from repro.topology import line, star
from repro.workload.driver import ExperimentDriver
from repro.workload.generator import WorkloadGenerator

from ..conftest import forced_node_backend

TOPOLOGIES = {"star50": lambda: star(50), "line200": lambda: line(200)}
# name -> DagSystem keyword arguments; "uniform" draws every delay from
# [1, 1], so its deliveries fall where the constant model's do, through the heap.
WATCHING = {
    "uniform": lambda: {"latency": UniformLatency(1.0, 1.0)},
    "traced": lambda: {"record_trace": True},
    "fault": lambda: {"network_factory": FaultInjectingNetwork},
}


def replay(topology_name, node_backend, **system_kwargs):
    """Step one fault-free replay; count ``_deliver`` and watch the lane."""
    topology = TOPOLOGIES[topology_name]()
    workload = WorkloadGenerator(topology.nodes, seed=3).poisson(
        total_requests=300, mean_interarrival=1.5
    )
    real_deliver = Network._deliver
    delivered = []

    def counting_deliver(network, payload):
        delivered.append(payload[3])
        real_deliver(network, payload)

    with forced_node_backend(node_backend), mock.patch.object(
        Network, "_deliver", counting_deliver
    ):
        system = DagSystem(topology, collect_metrics=False, **system_kwargs)
        assert system.node_backend == node_backend
        engine, network = system.engine, system.network
        lane = engine._lane
        driver = ExperimentDriver(system, workload)
        driver._load_arrivals(engine)
        lane_peak = 0
        while engine.run(max_events=1):
            lane_peak = max(lane_peak, len(lane))
            for _time, _sequence, handler, target, _sender, message in lane:
                # A resolved call: the receiver's table entry for the type.
                if node_backend == "object":
                    assert handler is type(target).dispatch_table[type(message)]
                else:
                    assert handler == network._columnar.dispatch_table[type(message)]
        assert engine.pending_events == 0 and network.messages_in_flight == 0
    return {
        "deliver_calls": len(delivered),
        "lane_peak": lane_peak,
        "outcome": (
            tuple(driver.entry_order),
            engine.processed_events,
            network.messages_sent,
        ),
    }


@pytest.mark.parametrize("topology_name", list(TOPOLOGIES))
def test_the_lane_fires_resolved_calls_and_watchers_go_through_deliver(topology_name):
    lane_replays = [replay(topology_name, backend) for backend in ("object", "compact")]
    outcome = lane_replays[0]["outcome"]
    messages = outcome[2]
    assert len(outcome[0]) == 300 and messages > 300
    for result in lane_replays:
        assert result["deliver_calls"] == 0 and result["lane_peak"] > 0
        assert result["outcome"] == outcome
    for name, kwargs in WATCHING.items():
        for backend in ("object", "compact"):
            result = replay(topology_name, backend, **kwargs())
            assert (name, result["deliver_calls"], result["lane_peak"]) == (name, messages, 0)
            assert result["outcome"] == outcome, (name, backend)


# --------------------------------------------------------------------------- #
# messages_in_flight after every step
# --------------------------------------------------------------------------- #
NETWORKS = {
    "lane": Network,
    "heap": lambda engine: Network(
        engine, latency=UniformLatency(0.5, 2.0, rng=SeededRNG(5, label="in-flight"))
    ),
    "fault": FaultInjectingNetwork,
}


@pytest.mark.parametrize("kind", list(NETWORKS))
def test_messages_in_flight_is_exact_after_every_step(kind):
    engine = SimulationEngine()
    network = NETWORKS[kind](engine)
    assert (network._enqueue == engine._lane.append) is (kind == "lane")

    def relay(node):
        # Every message n > 0 fans out as n - 1 to the next two nodes.
        def receive(_sender, n):
            if n:
                network.send(node, node % 4 + 1, n - 1)
                network.send(node, (node + 1) % 4 + 1, n - 1)

        return receive

    for node in (1, 2, 3, 4):
        network.register(node, relay(node))
    for node in (1, 2, 3):
        network.send(node, 4, 5)
    # Nothing but this network's deliveries is ever scheduled, so the
    # engine's pending count is the true number of messages in flight.
    assert network.messages_in_flight == engine.pending_events == 3
    steps = 0
    while engine.run(max_events=1):
        steps += 1
        if steps == 4:
            network.partition(1, 2)
        elif steps == 20:
            network.heal(1, 2)
        elif kind == "fault" and steps == 10:
            network.crash(3)
        elif kind == "fault" and steps == 30:
            network.fence()  # drops everything in flight: the run ends
        assert network.messages_in_flight == engine.pending_events
    assert network.messages_in_flight == 0 and steps > 30
    assert network.messages_sent > steps  # the partition dropped some at send
    if kind == "fault":
        log = network.fault_log
        assert log.fenced_messages and log.suppressed_deliveries
