"""Which of the paper's assumptions are load-bearing, demonstrated by faults.

Chapter 5's proofs assume a reliable network and non-failing nodes.  These
tests inject targeted faults and check the precise consequence:

* safety (at most one token, at most one node in its critical section) is
  never violated by message loss or crash-stop failures — faults can only
  *lose* the token, never duplicate it;
* liveness is lost in exactly the situations the assumptions rule out, and
  the experiment driver reports the starvation rather than hanging.
"""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import DagSystem
from repro.core.invariants import InvariantChecker
from repro.exceptions import ExperimentError
from repro.sim.faults import FaultInjectingNetwork
from repro.topology import line, star
from repro.workload.driver import ExperimentDriver
from repro.workload.requests import CSRequest, Workload


class _View:
    def __init__(self, system):
        self.topology = system.topology
        self.nodes = system.nodes
        self.network = system.network


def drive_with_checks(system, workload, *, max_events=100_000):
    """Run a workload to quiescence, checking safety after every event.

    Returns the list of nodes whose requests were never granted.
    """
    checker = InvariantChecker(_View(system))
    ExperimentDriver(system, workload)._load_arrivals(system.engine)
    processed = 0
    while system.engine.pending_events and processed < max_events:
        system.engine.run(max_events=1)
        checker.check_single_token()
        checker.check_mutual_exclusion()
        processed += 1
    return [
        node_id for node_id, node in system.nodes.items() if node.requesting
    ]


def test_dropped_request_starves_only_its_originator():
    topology = star(6, token_holder=2)
    system = DagSystem(topology, network_factory=FaultInjectingNetwork)
    network = system.network
    # Node 5's request toward the hub is dropped; node 4's request goes through.
    network.drop_next_of_kind("request")
    workload = Workload(
        requests=(
            CSRequest(node=5, arrival_time=0.0, cs_duration=1.0),
            CSRequest(node=4, arrival_time=50.0, cs_duration=1.0),
        )
    )
    starving = drive_with_checks(system, workload)
    assert starving == [5]
    assert system.node(4).cs_entries == 1
    assert len(network.fault_log.dropped_messages) == 1


def test_dropped_privilege_loses_the_token_but_never_duplicates_it():
    topology = star(6, token_holder=2)
    system = DagSystem(topology, network_factory=FaultInjectingNetwork)
    network = system.network
    # The hand-off from the holder (node 2) to the requester (node 5) is lost.
    network.drop_next_of_kind("privilege")
    workload = Workload.single(5)
    starving = drive_with_checks(system, workload)
    assert starving == [5]
    # The token is gone: no node has it, and nobody ever had two of it (the
    # per-event safety checks in drive_with_checks would have raised).
    assert all(not node.has_token() for node in system.nodes.values())


def test_crashed_intermediate_node_blocks_requests_routed_through_it():
    topology = line(5, token_holder=5)
    system = DagSystem(topology, network_factory=FaultInjectingNetwork)
    network = system.network
    network.crash(3)  # the middle of the line
    workload = Workload.single(1)  # must route 1 -> 2 -> 3 -> 4 -> 5
    starving = drive_with_checks(system, workload)
    assert starving == [1]
    assert len(network.fault_log.suppressed_deliveries) >= 1


def test_crashed_leaf_off_the_request_path_is_harmless():
    topology = star(7, token_holder=2)
    system = DagSystem(topology, network_factory=FaultInjectingNetwork)
    network = system.network
    network.crash(6)  # a leaf that neither requests nor routes anything
    workload = Workload(
        requests=(
            CSRequest(node=5, arrival_time=0.0, cs_duration=1.0),
            CSRequest(node=3, arrival_time=10.0, cs_duration=1.0),
        )
    )
    starving = drive_with_checks(system, workload)
    assert starving == []
    assert system.node(5).cs_entries == 1
    assert system.node(3).cs_entries == 1


def test_driver_reports_starvation_instead_of_hanging():
    topology = star(5, token_holder=1)
    system = DagSystem(topology, network_factory=FaultInjectingNetwork)
    network = system.network
    network.drop_next_of_kind("request")
    driver = ExperimentDriver(system, Workload.single(3))
    with pytest.raises(ExperimentError):
        driver.run()


def test_recovering_the_network_restores_liveness_for_new_requests():
    """Liveness failures are not contagious: once the fault window closes, a
    fresh request (node 4) is served even though node 5's earlier request was
    lost for good."""
    topology = star(6, token_holder=2)
    system = DagSystem(topology, network_factory=FaultInjectingNetwork)
    network = system.network
    network.drop_next_of_kind("request")
    workload = Workload(
        requests=(
            CSRequest(node=5, arrival_time=0.0, cs_duration=1.0),
            CSRequest(node=4, arrival_time=100.0, cs_duration=1.0),
            CSRequest(node=3, arrival_time=200.0, cs_duration=1.0),
        )
    )
    starving = drive_with_checks(system, workload)
    assert starving == [5]
    assert system.node(4).cs_entries == 1
    assert system.node(3).cs_entries == 1
