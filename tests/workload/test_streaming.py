"""Streaming workloads: batch semantics, determinism, and driver loading.

The streamed pipeline is a pure representation change: a streamed schedule
flattens to exactly the materialised one and replays as it does, event for
event, whatever its batch size — the driver loads both in one bulk load,
every sequence number drawn up front, and the engine draws the stream's
batches only as the drain reaches them.  A stream that breaks its contract
(out of ``(arrival_time, node)`` order, more or fewer requests than it said) is refused,
never replayed.
"""

from __future__ import annotations

import pytest

from repro.baselines.base import registry
from repro.baselines.dag_adapter import DagSystem
from repro.exceptions import WorkloadError
from repro.topology import balanced_tree, star
from repro.workload import (
    CSRequest,
    ExperimentDriver,
    StreamingWorkload,
    WorkloadGenerator,
    generator as generator_module,
    run_experiment,
)


def generator(seed: int = 0, n: int = 20) -> WorkloadGenerator:
    return WorkloadGenerator(range(1, n + 1), seed=seed)


def rebatched(requests, size: int) -> StreamingWorkload:
    """``requests`` as a stream of ``size``-request batches."""
    return StreamingWorkload(
        lambda: (list(requests[start:start + size]) for start in range(0, len(requests), size)),
        total_requests=len(requests),
    )


# --------------------------------------------------------------------------- #
# schedule equivalence
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("chunk", [1, 7, 20, 1000])
def test_heavy_stream_flattens_to_the_materialised_schedule(chunk, monkeypatch):
    monkeypatch.setattr(generator_module, "STREAM_BATCH_REQUESTS", chunk)
    materialised = generator().heavy_demand(rounds=3)
    streamed = generator().heavy_demand_stream(rounds=3)
    assert len(streamed) == len(materialised) == 60
    assert list(streamed) == list(materialised.requests)


def test_heavy_stream_batches_respect_the_chunk_size(monkeypatch):
    monkeypatch.setattr(generator_module, "STREAM_BATCH_REQUESTS", 7)
    streamed = generator().heavy_demand_stream(rounds=3)
    batches = list(streamed.iter_batches())
    assert all(len(batch) <= 7 for batch in batches)
    assert sum(len(batch) for batch in batches) == 60
    flat = [request for batch in batches for request in batch]
    assert flat == sorted(flat, key=lambda r: (r.arrival_time, r.node))


def test_streams_are_reiterable_and_deterministic(monkeypatch):
    monkeypatch.setattr(generator_module, "STREAM_BATCH_REQUESTS", 13)
    streamed = generator(5).heavy_demand_stream(rounds=2)
    first = [(r.node, r.arrival_time) for r in streamed]
    second = [(r.node, r.arrival_time) for r in streamed]
    assert first == second


def test_stream_argument_validation():
    with pytest.raises(WorkloadError):
        generator().heavy_demand_stream(rounds=0)
    with pytest.raises(WorkloadError):
        StreamingWorkload(lambda: iter(()), total_requests=-1)


# --------------------------------------------------------------------------- #
# driver loading
# --------------------------------------------------------------------------- #
def test_single_chunk_stream_replays_byte_identically_to_materialised():
    topology = star(20)
    materialised = generator().heavy_demand(rounds=3)
    streamed = generator().heavy_demand_stream(rounds=3)
    reference = run_experiment("dag", topology, materialised)
    result = run_experiment("dag", topology, streamed)
    assert result.entry_order == reference.entry_order
    assert result.total_messages == reference.total_messages
    assert result.finished_at == reference.finished_at
    assert result.mean_waiting_time == reference.mean_waiting_time


@pytest.mark.parametrize("algorithm", ["dag", "centralized", "raymond"])
def test_chunked_heavy_stream_completes_and_replays_identically(algorithm, monkeypatch):
    # Batch boundaries fall mid-round, so a batch is drawn while arrivals
    # and deliveries of the same time are queued.
    monkeypatch.setattr(generator_module, "STREAM_BATCH_REQUESTS", 7)
    topology = star(20)
    streamed = generator().heavy_demand_stream(rounds=3)
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
    streamed = rebatched(materialised.requests, 13)
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


#: Topologies of the chunk-independence test: the paper's best case, a
#: larger star, and a tree whose REQUESTs travel several hops.
TOPOLOGIES = {"star20": star(20), "star200": star(200), "tree2x6": balanced_tree(2, 6)}


def replayed(algorithm, topology, workload):
    """Everything a replay's order shows: entries, messages, events, end."""
    system = registry.get(algorithm)(topology, collect_metrics=False)
    result = ExperimentDriver(system, workload).run()
    return (
        result.entry_order,
        result.total_messages,
        system.engine.processed_events,
        result.finished_at,
    )


@pytest.mark.parametrize("size", [1, 7, 100, None], ids=["1", "7", "100", "whole"])
@pytest.mark.parametrize("algorithm", ["dag", "centralized", "raymond"])
@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_a_streamed_replay_is_the_materialised_one_whatever_the_batch_size(
    topology, algorithm, size
):
    # Heavy demand: every round's arrivals share one time, so any batch
    # boundary falls between equal-time arrivals — and between arrivals and
    # the releases and deliveries queued at the same time.
    topology = TOPOLOGIES[topology]
    materialised = WorkloadGenerator(topology.nodes, seed=0).heavy_demand(rounds=3)
    requests = materialised.requests
    streamed = rebatched(requests, size or len(requests))
    assert replayed(algorithm, topology, streamed) == replayed(
        algorithm, topology, materialised
    )


def refusal(batches, total, description="bad"):
    """The error a replay of these batches ends in, and what it replayed."""
    stream = StreamingWorkload(batches, total_requests=total, description=description)
    driver = ExperimentDriver(DagSystem(star(5)), stream)
    with pytest.raises(WorkloadError) as refused:
        driver.run()
    return str(refused.value), driver.entry_order


def test_out_of_order_batches_are_rejected():
    def batches():
        yield [CSRequest(node=1, arrival_time=5.0)]
        yield [CSRequest(node=2, arrival_time=1.0)]  # travels back in time

    message, _ = refusal(batches, 2)
    assert message == "bad: batch starting at 1.0 precedes the previous batch's last arrival 5.0"


def test_a_batch_out_of_order_within_itself_is_rejected():
    def batches():
        yield [CSRequest(node=1, arrival_time=0.0), CSRequest(node=2, arrival_time=3.0)]
        yield [CSRequest(node=3, arrival_time=4.0), CSRequest(node=4, arrival_time=3.5)]

    message, _ = refusal(batches, 4)
    assert message == "bad: batch starting at 4.0 is not in (arrival time, node) order"


@pytest.mark.parametrize("split", [False, True], ids=["within-a-batch", "across-batches"])
def test_equal_times_out_of_node_order_are_rejected(split):
    # A Workload orders equal times by node, so a stream that does not would
    # replay differently from the Workload of the same requests.
    requests = [CSRequest(node=3, arrival_time=2.0), CSRequest(node=1, arrival_time=2.0)]

    def batches():
        if split:
            yield requests[:1]
            yield requests[1:]
        else:
            yield requests

    message, entries = refusal(batches, 2)
    assert message == "bad: batch starting at 2.0 is not in (arrival time, node) order"
    assert entries == []


def test_a_stream_longer_than_its_length_is_refused_before_the_extra_batch():
    # One batch a round, the fourth past the three the stream declared: it
    # would take sequence numbers the replay's own events hold.
    def batches():
        for round_index in range(4):
            yield [CSRequest(node, float(10 * round_index)) for node in range(1, 6)]

    message, entered = refusal(batches, 15, "long")
    assert message == "long: yields more than its 15 requests"
    assert len(entered) <= 15


def test_a_stream_shorter_than_its_length_is_refused():
    def batches():
        yield [CSRequest(node, 0.0) for node in range(1, 6)]

    message, _ = refusal(batches, 6, "short")
    assert message == "short: yields 5 of its 6 requests"
    # The same check holds for any reader of the stream, not only a replay.
    with pytest.raises(WorkloadError, match="yields 5 of its 6 requests"):
        list(StreamingWorkload(batches, total_requests=6, description="short"))


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
