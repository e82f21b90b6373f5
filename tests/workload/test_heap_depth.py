"""What waits where during a replay: exact peaks, not bounds.

The pending-event store has three places (``repro.sim.schedulers``).  The
workload's bulk-loaded arrivals wait beside the heap, built from the
workload a chunk at a time (``test_replay_memory.py``), a constant-latency
network's deliveries wait in a FIFO lane, and the heap keeps everything
else — for a fault-free DAG replay, only the driver's releases.  Mutual
exclusion allows one critical section at a time, so the heap's peak is
exactly 1.  The lane holds the messages in flight, which the protocol bounds
by the topology, not by the workload: its peak is the same for 5 rounds as
for 50.

Deterministic: events are counted, no clock is read.  The probe reads the
scheduler's private containers; the drain loop carries no counter for them.
"""

from __future__ import annotations

import pytest

from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver


def peaks(kind: str, n: int, rounds: int):
    """``(heap peak, lane peak)`` over a heavy replay, stepped one event at a time."""
    driver = ExperimentDriver.from_spec(
        ExperimentSpec(
            algorithm="dag",
            topology=TopologySpec(kind=kind, n=n),
            workload=WorkloadSpec(tier="heavy", rounds=rounds),
            collect_metrics=False,
        )
    )
    engine = driver.system.engine
    driver._load_arrivals(engine)
    assert engine.pending_events == len(driver.workload) == rounds * n
    heap, lane = engine.scheduler._entries, engine.scheduler._lane
    heap_peak = lane_peak = 0
    while engine.step():
        heap_peak = max(heap_peak, len(heap))
        lane_peak = max(lane_peak, len(lane))
    assert engine.pending_events == 0
    assert len(driver.entry_order) == rounds * n
    return heap_peak, lane_peak


@pytest.mark.parametrize(
    "kind, n, lane_peak", [("star", 1000, 1000), ("line", 200, 199), ("tree", 127, 126)]
)
def test_heap_holds_one_release_and_the_lane_what_is_in_flight(kind, n, lane_peak):
    assert peaks(kind, n, rounds=5) == (1, lane_peak)
    assert peaks(kind, n, rounds=50) == (1, lane_peak)
