"""Unit tests for the Chapter 5 invariant checker."""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import DagMutexProtocol
from repro.core.invariants import InvariantChecker
from repro.exceptions import InvariantViolation
from repro.topology import line, star


@pytest.fixture
def protocol():
    return DagMutexProtocol(star(6))


@pytest.fixture
def checker(protocol):
    return InvariantChecker(protocol)


def test_fresh_system_passes_all_checks(protocol, checker):
    checker.check()
    assert checker.checks_performed == 1


def test_checks_pass_throughout_a_busy_run():
    protocol = DagMutexProtocol(line(6, token_holder=3), check_invariants=True)
    protocol.request(1)
    protocol.request(6)
    protocol.request(3)
    protocol.run_until_quiescent()
    protocol.release(3)
    protocol.run_until_quiescent()
    # Two nodes still queued; drain them.
    for _ in range(2):
        in_cs = [n for n in protocol.node_ids if protocol.node(n).in_critical_section]
        protocol.release(in_cs[0])
        protocol.run_until_quiescent()
    assert protocol.invariant_checker.checks_performed > 10


def test_duplicate_token_detected(protocol, checker):
    protocol.node(2).holding = True
    with pytest.raises(InvariantViolation):
        checker.check_single_token()


def test_double_critical_section_detected(protocol, checker):
    protocol.node(2).in_critical_section = True
    protocol.node(3).in_critical_section = True
    with pytest.raises(InvariantViolation):
        checker.check_mutual_exclusion()


def test_next_pointer_off_tree_detected(protocol, checker):
    # In the star all edges touch the centre; a leaf-to-leaf pointer is illegal.
    protocol.node(2).next_node = 3
    with pytest.raises(InvariantViolation):
        checker.check_edges_stay_in_tree()


def test_next_cycle_detected():
    protocol = DagMutexProtocol(line(3, token_holder=3))
    checker = InvariantChecker(protocol)
    # Manufacture a two-node cycle 2 <-> 3 (both edges exist in the line).
    protocol.node(3).holding = False
    protocol.node(3).next_node = 2
    protocol.node(2).next_node = 3
    with pytest.raises(InvariantViolation):
        checker.check_next_graph_acyclic()


def test_follow_pointing_at_idle_node_detected(protocol, checker):
    protocol.node(1).follow = 4  # node 4 neither requests nor executes
    protocol.node(1).holding = False
    protocol.node(1).in_critical_section = True
    with pytest.raises(InvariantViolation):
        checker.check_follow_chain()


def test_follow_self_reference_detected(protocol, checker):
    protocol.node(2).follow = 2
    with pytest.raises(InvariantViolation):
        checker.check_follow_chain()


def test_follow_shared_successor_detected(protocol, checker):
    protocol.node(4).requesting = True
    protocol.node(2).follow = 4
    protocol.node(3).follow = 4
    protocol.node(2).requesting = True
    protocol.node(3).requesting = True
    with pytest.raises(InvariantViolation):
        checker.check_follow_chain()


def test_quiescent_shape_requires_single_sink(protocol, checker):
    protocol.node(5).next_node = None  # a second sink without the token
    with pytest.raises(InvariantViolation):
        checker.check_quiescent_shape()


def test_quiescent_shape_requires_token_at_sink(protocol, checker):
    protocol.node(1).holding = False  # sink no longer has the token
    with pytest.raises(InvariantViolation):
        checker.check_quiescent_shape()


def test_quiescent_shape_requires_empty_follow(protocol, checker):
    # A FOLLOW left over in a quiescent system means a request was lost.
    protocol.node(3).follow = 4
    with pytest.raises(InvariantViolation):
        checker.check_quiescent_shape()


def test_full_check_skips_quiescent_shape_while_requests_outstanding(protocol):
    checker = InvariantChecker(protocol)
    protocol.request(4)  # node 4 is now a second sink, legitimately
    checker.check()  # must not raise: the system is not quiescent
