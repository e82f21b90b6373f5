"""Unit tests for the core protocol messages."""

from __future__ import annotations

from repro.baselines import registry
from repro.core.messages import Initialize, Privilege, Request
from repro.topology import star
from repro.workload import WorkloadGenerator
from repro.workload.driver import ExperimentDriver


def test_request_fields_and_metadata():
    message = Request(sender=4, origin=3)
    assert message.sender == 4
    assert message.origin == 3
    assert message.type_name == "REQUEST"
    assert message.payload_size() == 2
    assert message.describe() == "REQUEST(4,3)"


def test_privilege_carries_no_payload():
    message = Privilege()
    assert message.type_name == "PRIVILEGE"
    assert message.payload_size() == 0
    assert message.describe() == "PRIVILEGE"


def test_initialize_fields():
    message = Initialize(origin=7)
    assert message.origin == 7
    assert message.type_name == "INITIALIZE"
    assert message.payload_size() == 1
    assert "7" in message.describe()


def test_messages_are_immutable_and_hashable():
    first = Request(sender=1, origin=2)
    second = Request(sender=1, origin=2)
    assert first == second
    assert hash(first) == hash(second)
    assert Privilege() == Privilege()
    assert len({first, second, Privilege(), Privilege()}) == 2


def test_storage_overhead_claim_of_section_6_4():
    """The paper's storage claim: REQUEST carries two integers, PRIVILEGE none."""
    assert Request(sender=1, origin=1).payload_size() == 2
    assert Privilege().payload_size() == 0

    # Measured on the wire during a contended run: the DAG's messages stay
    # that small, while the token-carrying baselines ship Theta(N) state
    # inside their PRIVILEGE message.
    n = 17
    topology = star(n, token_holder=2)
    workload = WorkloadGenerator(topology.nodes, seed=5).poisson(
        total_requests=3 * n, mean_interarrival=2.0
    )
    payloads = {}
    for name in ("dag", "suzuki-kasami", "singhal"):
        system = registry.get(name)(topology)
        ExperimentDriver(system, workload).run()
        payloads[name] = {
            message_type: system.metrics.mean_payload_size(message_type)
            for message_type in system.metrics.messages_by_type
        }
    assert payloads["dag"] == {"REQUEST": 2.0, "PRIVILEGE": 0.0}
    assert payloads["suzuki-kasami"]["PRIVILEGE"] >= 2 * n
    assert payloads["singhal"]["PRIVILEGE"] >= 2 * n
