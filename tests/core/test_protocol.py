"""Unit and integration tests for DagMutexProtocol."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines.dag_adapter import DagMutexProtocol
from repro.exceptions import ProtocolError
from repro.topology import line, star


def test_construction_orients_toward_token_holder(star_topology):
    protocol = DagMutexProtocol(star_topology)
    holder = star_topology.token_holder
    assert protocol.node(holder).holding
    assert protocol.node(holder).next_node is None
    for node_id in protocol.node_ids:
        if node_id != holder:
            assert not protocol.node(node_id).holding
            assert protocol.node(node_id).next_node is not None


def test_unknown_node_rejected(star_topology):
    protocol = DagMutexProtocol(star_topology)
    with pytest.raises(ProtocolError):
        protocol.node(99)
    with pytest.raises(ProtocolError):
        protocol.request(99)


def test_single_request_on_star_costs_three_messages(star_topology):
    """A leaf request with the token at another leaf: REQUEST, REQUEST, PRIVILEGE."""
    protocol = DagMutexProtocol(star_topology.with_token_holder(2))
    protocol.request(5)
    protocol.run_until_quiescent()
    assert protocol.node(5).in_critical_section
    assert protocol.metrics.total_messages == 3
    protocol.release(5)
    protocol.run_until_quiescent()
    assert protocol.metrics.total_messages == 3  # release sends nothing new


def test_request_by_token_holder_is_free(star_topology):
    protocol = DagMutexProtocol(star_topology)
    protocol.request(star_topology.token_holder)
    assert protocol.node(star_topology.token_holder).in_critical_section
    assert protocol.metrics.total_messages == 0


def test_token_location_tracks_the_token(star_topology):
    protocol = DagMutexProtocol(star_topology)
    assert protocol.token_location() == star_topology.token_holder
    protocol.request(4)
    protocol.run_until_quiescent()
    assert protocol.token_location() == 4
    protocol.release(4)
    assert protocol.token_location() == 4  # kept via HOLDING


def test_token_location_none_while_in_transit(star_topology):
    protocol = DagMutexProtocol(star_topology.with_token_holder(2))
    protocol.request(3)
    # Process events until the PRIVILEGE is in flight: after the holder
    # granted it but before node 3 received it, nobody has the token.
    protocol.run(max_events=2)
    locations = set()
    while protocol.engine.pending_events:
        locations.add(protocol.token_location())
        protocol.run(max_events=1)
    assert None in locations
    assert protocol.token_location() == 3


def test_fifo_queue_order_is_respected(line_topology):
    """Concurrent requests are served in the order they reach the sink."""
    protocol = DagMutexProtocol(line_topology, check_invariants=True)
    order = []
    protocol.network.on_enter = lambda node_id, time: order.append(node_id)
    protocol.request(3)
    protocol.run_until_quiescent()
    protocol.request(1)
    protocol.request(6)
    protocol.run_until_quiescent()
    protocol.release(3)
    protocol.run_until_quiescent()
    # Whichever entered next must release before the other can enter.
    protocol.release(order[-1])
    protocol.run_until_quiescent()
    protocol.release(order[-1])
    protocol.run_until_quiescent()
    assert sorted(order) == [1, 3, 6]
    assert order[0] == 3


def test_run_until_quiescent_raises_on_event_budget(star_topology):
    protocol = DagMutexProtocol(star_topology)
    engine = protocol.engine

    def livelock(_):  # every event schedules the next
        engine.schedule_lite(engine.now + 1.0, livelock)

    livelock(None)
    with pytest.raises(ProtocolError, match="within 1000000 events"):
        protocol.run_until_quiescent()


def test_snapshot_covers_every_node(star_topology):
    protocol = DagMutexProtocol(star_topology)
    snapshot = protocol.snapshot()
    assert set(snapshot) == set(star_topology.nodes)
    assert all("HOLDING" in row for row in snapshot.values())


def test_invariant_checker_attached_only_when_requested(star_topology):
    assert DagMutexProtocol(star_topology).invariant_checker is None
    protocol = DagMutexProtocol(star_topology, check_invariants=True)
    assert protocol.invariant_checker is not None
    protocol.request(3)
    protocol.run_until_quiescent()
    assert protocol.invariant_checker.checks_performed > 0


def test_trace_recording_captures_protocol_events(star_topology):
    protocol = DagMutexProtocol(star_topology.with_token_holder(2), record_trace=True)
    protocol.request(5)
    protocol.run_until_quiescent()
    protocol.release(5)
    counts = Counter(event.category for event in protocol.trace)
    assert counts["cs_request"] == counts["cs_enter"] == counts["cs_exit"] == 1
    assert counts["send"] == counts["receive"] == 3


def test_many_sequential_entries_on_line():
    """The token walks the line back and forth; every request is eventually served."""
    protocol = DagMutexProtocol(line(7, token_holder=1), check_invariants=True)
    entered = []
    protocol.network.on_enter = lambda node_id, time: entered.append(node_id)
    for requester in [7, 1, 4, 2, 6, 3, 5]:
        protocol.request(requester)
        protocol.run_until_quiescent()
        protocol.release(entered[-1])
        protocol.run_until_quiescent()
    assert sorted(entered) == [1, 2, 3, 4, 5, 6, 7]
