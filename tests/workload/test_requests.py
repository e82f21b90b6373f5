"""Unit tests for workload data types."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import WorkloadError
from repro.workload.requests import CSRequest, Workload


def test_request_fields_and_validation():
    request = CSRequest(node=3, arrival_time=1.5, cs_duration=2.0)
    assert request.node == 3
    assert request.arrival_time == 1.5
    assert request.cs_duration == 2.0
    with pytest.raises(WorkloadError):
        CSRequest(node=1, arrival_time=-1.0)
    with pytest.raises(WorkloadError):
        CSRequest(node=1, arrival_time=0.0, cs_duration=-2.0)


def test_workload_sorts_requests_by_time_then_node():
    workload = Workload(
        requests=(
            CSRequest(node=5, arrival_time=3.0),
            CSRequest(node=2, arrival_time=1.0),
            CSRequest(node=1, arrival_time=3.0),
        )
    )
    assert [(r.node, r.arrival_time) for r in workload] == [(2, 1.0), (1, 3.0), (5, 3.0)]


def test_a_time_that_is_not_a_number_is_refused():
    # No comparison with a NaN is true, so `nan < 0` let one in, and the
    # schedule it joined was left in no order at all.
    nan = float("nan")
    with pytest.raises(WorkloadError, match="arrival time must be non-negative, got nan"):
        CSRequest(node=1, arrival_time=nan)
    with pytest.raises(WorkloadError, match="CS duration must be non-negative, got nan"):
        CSRequest(node=1, arrival_time=0.0, cs_duration=nan)


def test_workload_order_is_time_then_node_then_input_order():
    # The two one-attribute passes give the order one (arrival_time, node)
    # key gives, ties between equal requests kept in input order.
    rng = random.Random(5)
    requests = [
        CSRequest(rng.randrange(6), rng.randrange(4) / 2, cs_duration=float(index))
        for index in range(300)
    ]
    ordered = sorted(requests, key=lambda request: (request.arrival_time, request.node))
    assert Workload(tuple(requests)).requests == tuple(ordered)
    assert [r.cs_duration for r in Workload(tuple(requests))] == [r.cs_duration for r in ordered]


def test_workload_len_nodes_horizon():
    workload = Workload(
        requests=(
            CSRequest(node=2, arrival_time=0.0),
            CSRequest(node=2, arrival_time=5.0),
            CSRequest(node=4, arrival_time=2.0),
        )
    )
    assert len(workload) == 3
    assert workload.nodes == [2, 4]


def test_empty_workload():
    workload = Workload(requests=())
    assert len(workload) == 0
    assert workload.nodes == []


def test_single_factory():
    workload = Workload.single(7)
    assert len(workload) == 1
    assert workload.requests[0].node == 7
    assert workload.requests[0].arrival_time == 0.0
    assert workload.requests[0].cs_duration == 1.0
    assert "7" in workload.description
