"""Streaming workloads: batch semantics, determinism, and driver loading.

The streamed pipeline must be a pure representation change: a streamed
schedule flattens to exactly the materialised one, replays identically when
a single chunk covers it, and — the property the 1M tier's acceptance rests
on — replays byte-identically from one pass to the next even when chunk
boundaries interleave loader events with protocol traffic.
"""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.topology import star
from repro.workload import (
    CSRequest,
    ExperimentDriver,
    StreamingWorkload,
    WorkloadGenerator,
    run_experiment,
)
from repro.baselines.dag_adapter import DagSystem


def generator(seed: int = 0, n: int = 20) -> WorkloadGenerator:
    return WorkloadGenerator(range(1, n + 1), seed=seed)


# --------------------------------------------------------------------------- #
# schedule equivalence
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("chunk", [1, 7, 20, 1000])
def test_heavy_stream_flattens_to_the_materialised_schedule(chunk):
    materialised = generator().heavy_demand(rounds=3)
    streamed = generator().heavy_demand_stream(rounds=3, chunk_requests=chunk)
    assert len(streamed) == len(materialised) == 60
    assert list(streamed) == list(materialised.requests)


def test_heavy_stream_batches_respect_the_chunk_size():
    streamed = generator().heavy_demand_stream(rounds=3, chunk_requests=7)
    batches = list(streamed.iter_batches())
    assert all(len(batch) <= 7 for batch in batches)
    assert sum(len(batch) for batch in batches) == 60
    flat = [request for batch in batches for request in batch]
    assert flat == sorted(flat, key=lambda r: (r.arrival_time, r.node))


def test_streams_are_reiterable_and_deterministic():
    streamed = generator(5).heavy_demand_stream(rounds=2, chunk_requests=13)
    first = [(r.node, r.arrival_time) for r in streamed]
    second = [(r.node, r.arrival_time) for r in streamed]
    assert first == second


def test_stream_argument_validation():
    with pytest.raises(WorkloadError):
        generator().heavy_demand_stream(rounds=0)
    with pytest.raises(WorkloadError):
        generator().heavy_demand_stream(rounds=2, chunk_requests=0)
    with pytest.raises(WorkloadError):
        StreamingWorkload(lambda: iter(()), total_requests=-1)


# --------------------------------------------------------------------------- #
# driver loading
# --------------------------------------------------------------------------- #
def test_single_chunk_stream_replays_byte_identically_to_materialised():
    topology = star(20)
    materialised = generator().heavy_demand(rounds=3)
    streamed = generator().heavy_demand_stream(rounds=3, chunk_requests=10_000)
    reference = run_experiment("dag", topology, materialised)
    result = run_experiment("dag", topology, streamed)
    assert result.entry_order == reference.entry_order
    assert result.total_messages == reference.total_messages
    assert result.finished_at == reference.finished_at
    assert result.mean_waiting_time == reference.mean_waiting_time


@pytest.mark.parametrize("algorithm", ["dag", "centralized", "raymond"])
def test_chunked_heavy_stream_completes_and_replays_identically(algorithm):
    # Chunk boundaries fall mid-round, so loader events share timestamps
    # with arrivals and deliveries.
    topology = star(20)
    streamed = generator().heavy_demand_stream(rounds=3, chunk_requests=7)
    outcomes = []
    for _ in range(2):
        result = run_experiment(algorithm, topology, streamed, collect_metrics=False)
        outcomes.append(
            (result.entry_order, result.total_messages, result.finished_at)
        )
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][0]) == 60  # every request served


def test_chunked_offlattice_stream_completes_and_matches_materialised():
    topology = star(20)
    materialised = generator(5).poisson(total_requests=40, mean_interarrival=2.0)
    requests = materialised.requests
    streamed = StreamingWorkload(
        lambda: (list(requests[start:start + 13]) for start in range(0, 40, 13)),
        total_requests=40,
    )
    reference = run_experiment("dag", topology, materialised)
    result = run_experiment("dag", topology, streamed)
    assert result.completed_entries == reference.completed_entries == 40
    assert result.entry_order == reference.entry_order


def test_empty_stream_is_a_clean_noop():
    topology = star(5)
    empty = StreamingWorkload(
        lambda: iter(()), total_requests=0, description="empty"
    )
    result = run_experiment("dag", topology, empty)
    assert result.completed_entries == 0
    assert result.entry_order == []


def test_out_of_order_batches_are_rejected():
    topology = star(5)

    def batches():
        yield [CSRequest(node=1, arrival_time=5.0)]
        yield [CSRequest(node=2, arrival_time=1.0)]  # travels back in time

    bad = StreamingWorkload(batches, total_requests=2, description="bad")
    system = DagSystem(topology)
    driver = ExperimentDriver(system, bad)
    with pytest.raises(
        WorkloadError,
        match=r"^bad: batch starting at 1\.0 precedes the previous batch's last arrival 5\.0$",
    ):
        driver.run()


def test_driver_backlog_serialises_repeated_requests_per_node():
    # Three same-node requests at once: the adaptive backlog must promote
    # from a bare request to a deque and still serve strictly in order.
    topology = star(3)
    requests = [
        CSRequest(node=2, arrival_time=0.0),
        CSRequest(node=2, arrival_time=0.0),
        CSRequest(node=2, arrival_time=0.0),
        CSRequest(node=3, arrival_time=0.0),
    ]

    def batches():
        yield requests[:2]
        yield requests[2:]

    streamed = StreamingWorkload(batches, total_requests=4, description="backlog")
    result = run_experiment("dag", topology, streamed)
    assert result.completed_entries == 4
    assert result.entry_order.count(2) == 3
