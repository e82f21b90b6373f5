"""Unit tests for the workload generators."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.exceptions import WorkloadError
from repro.spec import TopologySpec, WorkloadSpec
from repro.workload.generator import WorkloadGenerator

NODES = (1, 2, 3, 4, 5)


def test_generator_requires_nodes():
    with pytest.raises(WorkloadError):
        WorkloadGenerator([])


def test_poisson_counts_nodes_and_monotone_arrivals():
    generator = WorkloadGenerator(NODES, seed=1)
    workload = generator.poisson(total_requests=50, mean_interarrival=2.0)
    assert len(workload) == 50
    assert set(workload.nodes) <= set(NODES)
    times = [request.arrival_time for request in workload]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)


def test_poisson_is_deterministic_per_seed():
    first = WorkloadGenerator(NODES, seed=9).poisson(total_requests=20, mean_interarrival=1.0)
    second = WorkloadGenerator(NODES, seed=9).poisson(total_requests=20, mean_interarrival=1.0)
    assert first.requests == second.requests
    third = WorkloadGenerator(NODES, seed=10).poisson(total_requests=20, mean_interarrival=1.0)
    assert first.requests != third.requests


def test_poisson_restricted_to_subset_of_nodes():
    generator = WorkloadGenerator([2, 3], seed=2)
    workload = generator.poisson(total_requests=30, mean_interarrival=1.0)
    assert set(workload.nodes) <= {2, 3}


def test_poisson_mean_interarrival_controls_density():
    generator = WorkloadGenerator(NODES, seed=3)
    dense = generator.poisson(total_requests=100, mean_interarrival=1.0)
    sparse = WorkloadGenerator(NODES, seed=3).poisson(
        total_requests=100, mean_interarrival=10.0
    )
    assert dense.requests[-1].arrival_time < sparse.requests[-1].arrival_time


def test_poisson_rejects_negative_count():
    with pytest.raises(WorkloadError):
        WorkloadGenerator(NODES).poisson(total_requests=-1, mean_interarrival=1.0)


def test_heavy_demand_every_node_every_round():
    generator = WorkloadGenerator(NODES, seed=5)
    workload = generator.heavy_demand(rounds=3)
    assert len(workload) == 3 * len(NODES)
    assert Counter(request.node for request in workload) == {node: 3 for node in NODES}
    with pytest.raises(WorkloadError):
        generator.heavy_demand(rounds=0)


def test_hotspot_bias_toward_hot_nodes():
    generator = WorkloadGenerator(NODES, seed=6)
    workload = generator.hotspot(
        total_requests=300, hot_nodes=[1], hot_fraction=0.9, mean_interarrival=1.0
    )
    hot = sum(request.node == 1 for request in workload)
    assert hot > 0.8 * len(workload)


def test_hotspot_validates_arguments():
    generator = WorkloadGenerator(NODES, seed=6)
    with pytest.raises(WorkloadError):
        generator.hotspot(total_requests=10, hot_nodes=[99])
    with pytest.raises(WorkloadError):
        generator.hotspot(total_requests=10, hot_nodes=[1], hot_fraction=1.5)


def test_hotspot_refuses_a_negative_count_as_the_others_do():
    # It used to return an empty workload.
    with pytest.raises(WorkloadError, match="^total_requests must be >= 0, got -5$"):
        WorkloadGenerator(NODES).hotspot(total_requests=-5, hot_nodes=[1])


@pytest.mark.parametrize("mean", [0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("pattern", ["poisson", "hotspot"])
def test_a_mean_interarrival_not_positive_and_finite_is_a_workload_error(pattern, mean):
    # It used to escape at the first draw: the RNG's bare ValueError for a
    # non-positive mean, a ZeroDivisionError for an infinite one.
    generator = WorkloadGenerator(NODES, seed=3)
    extra = {"hot_nodes": [1]} if pattern == "hotspot" else {}
    build = getattr(generator, pattern)
    message = f"^mean_interarrival must be positive and finite, got {mean}$"
    with pytest.raises(WorkloadError, match=message):
        build(total_requests=10, mean_interarrival=mean, **extra)
    # Refused before any draw: the generator's next schedule is a fresh one's.
    fresh = getattr(WorkloadGenerator(NODES, seed=3), pattern)
    assert build(total_requests=10, mean_interarrival=1.0, **extra) == fresh(
        total_requests=10, mean_interarrival=1.0, **extra
    )


class CountingId(int):
    """A node id that counts how often it is hashed or compared."""

    uses = 0

    def __hash__(self):
        CountingId.uses += 1
        return int.__hash__(self)

    def __eq__(self, other):
        CountingId.uses += 1
        return int.__eq__(self, other)


def test_hotspot_set_up_is_linear_in_the_node_count():
    # Each node is hashed a small constant number of times: the hot and
    # known sets are built once, not once per node or per hot node.
    n = 1000
    ids = [CountingId(node) for node in range(n)]
    CountingId.uses = 0
    workload = WorkloadGenerator(ids, seed=4).hotspot(total_requests=n, hot_nodes=ids[: n // 10])
    assert CountingId.uses <= 3 * n
    # The id type changes no draw.
    plain = WorkloadGenerator(range(n), seed=4).hotspot(
        total_requests=n, hot_nodes=range(n // 10)
    )
    assert [(int(r.node), r.arrival_time) for r in workload] == [
        (r.node, r.arrival_time) for r in plain
    ]


def schedule_digest(workload) -> str:
    """sha256 of a schedule's requests in order, field reprs and all.

    One ``batch`` header for the whole schedule: the batch boundaries of a
    streamed schedule were hashed too while the replay depended on them,
    and every other schedule was one batch."""
    digest = hashlib.sha256()
    requests = tuple(workload)
    digest.update(f"batch {len(requests)}\n".encode())
    for request in requests:
        fields = (request.node, request.arrival_time, request.cs_duration)
        digest.update(repr(fields).encode() + b"\n")
    return digest.hexdigest()[:16]


#: name -> (topology, workload, requests, digest at seed 11).  How the
#: generators build a schedule may change; the schedules may not: every
#: request and its field types are pinned.
SCHEDULES = {
    "light": (TopologySpec(kind="line", n=40), WorkloadSpec(tier="light"), 80,
              "5c8a558ce5c4b86a"),
    "heavy": (TopologySpec(kind="star", n=30), WorkloadSpec(tier="heavy", rounds=3), 90,
              "9c838cb1bb7257cc"),
    "bursty": (TopologySpec(kind="star", n=60), WorkloadSpec(tier="bursty"), 120,
               "37641b1ffc80a9bf"),
    "hotspot": (TopologySpec(kind="star", n=60), WorkloadSpec(tier="hotspot"), 120,
                "20002be2dad97d1a"),
    "diurnal": (TopologySpec(kind="star", n=60), WorkloadSpec(tier="diurnal"), 120,
                "90fc40a86ca4ebdb"),
}


@pytest.mark.parametrize("name", list(SCHEDULES))
def test_every_tier_builds_its_pinned_schedule(name):
    topology, workload_spec, requests, digest = SCHEDULES[name]
    workload = workload_spec.build(topology.build(), seed=11)
    assert len(workload) == requests
    assert schedule_digest(workload) == digest


def test_bursty_counts_nodes_and_monotone_arrivals():
    generator = WorkloadGenerator(NODES, seed=8)
    workload = generator.bursty(total_requests=60)
    assert len(workload) == 60
    assert set(workload.nodes) <= set(NODES)
    times = [request.arrival_time for request in workload]
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_bursty_is_deterministic_per_seed():
    first = WorkloadGenerator(NODES, seed=11).bursty(total_requests=40)
    second = WorkloadGenerator(NODES, seed=11).bursty(total_requests=40)
    assert first.requests == second.requests
    third = WorkloadGenerator(NODES, seed=12).bursty(total_requests=40)
    assert first.requests != third.requests


def test_bursty_alternates_dense_bursts_and_idle_gaps():
    generator = WorkloadGenerator(NODES, seed=13)
    workload = generator.bursty(
        total_requests=200,
        mean_burst_size=10.0,
        burst_interarrival=0.2,
        mean_idle_gap=100.0,
    )
    times = [request.arrival_time for request in workload]
    gaps = [b - a for a, b in zip(times, times[1:])]
    dense = [gap for gap in gaps if gap < 5.0]
    idle = [gap for gap in gaps if gap >= 5.0]
    # Most consecutive gaps are in-burst (short); the rest are long idle
    # phases separating bursts — both regimes must actually occur.
    assert len(dense) > 0.6 * len(gaps)
    assert idle, "expected at least one inter-burst idle gap"
    assert max(idle) > 10 * max(dense)


def test_bursty_restricted_to_subset_of_nodes():
    generator = WorkloadGenerator([2, 4], seed=14)
    workload = generator.bursty(total_requests=30)
    assert set(workload.nodes) <= {2, 4}


def test_bursty_validates_arguments():
    generator = WorkloadGenerator(NODES, seed=15)
    with pytest.raises(WorkloadError):
        generator.bursty(total_requests=-1)
    with pytest.raises(WorkloadError):
        generator.bursty(total_requests=10, mean_burst_size=0.5)
    with pytest.raises(WorkloadError):
        generator.bursty(total_requests=10, burst_interarrival=0.0)
    with pytest.raises(WorkloadError):
        generator.bursty(total_requests=10, mean_idle_gap=-1.0)


@pytest.mark.parametrize(
    "argument", ["mean_burst_size", "burst_interarrival", "mean_idle_gap"]
)
def test_bursty_refuses_a_nan_argument_when_it_builds(argument):
    # A NaN gap made NaN arrival times, which the columns do not check.
    with pytest.raises(WorkloadError, match=f"{argument}.*got.*nan"):
        WorkloadGenerator(NODES).bursty(total_requests=10, **{argument: float("nan")})


def test_bursty_zero_requests_is_empty():
    workload = WorkloadGenerator(NODES, seed=16).bursty(total_requests=0)
    assert len(workload) == 0


def test_diurnal_counts_and_monotone_arrivals():
    generator = WorkloadGenerator(NODES, seed=21)
    workload = generator.diurnal(total_requests=80)
    assert len(workload) == 80
    assert set(workload.nodes) <= set(NODES)
    times = [request.arrival_time for request in workload]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)


def test_diurnal_is_deterministic_per_seed():
    first = WorkloadGenerator(NODES, seed=22).diurnal(total_requests=40)
    second = WorkloadGenerator(NODES, seed=22).diurnal(total_requests=40)
    assert first.requests == second.requests
    third = WorkloadGenerator(NODES, seed=23).diurnal(total_requests=40)
    assert first.requests != third.requests


def test_diurnal_rate_actually_swings():
    # With amplitude 0.8, arrivals inside peak half-periods must outnumber
    # arrivals inside trough half-periods (about 3:1 in expectation).
    period = 200.0
    workload = WorkloadGenerator(NODES, seed=24).diurnal(total_requests=400)
    peak = trough = 0
    for request in workload:
        phase = (request.arrival_time % period) / period
        if phase < 0.5:
            peak += 1  # sin positive: above-base rate
        else:
            trough += 1
    assert peak > trough * 2


def test_diurnal_restricted_to_subset_of_nodes():
    workload = WorkloadGenerator([1, 5], seed=25).diurnal(total_requests=30)
    assert set(workload.nodes) <= {1, 5}


def test_diurnal_validates_arguments():
    generator = WorkloadGenerator(NODES, seed=26)
    with pytest.raises(WorkloadError):
        generator.diurnal(total_requests=-1)


def test_diurnal_zero_requests_is_empty():
    assert len(WorkloadGenerator(NODES, seed=27).diurnal(total_requests=0)) == 0
