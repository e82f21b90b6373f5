"""The heap holds what is in flight, not the workload.

P1 and P2 are message handlers over a FIFO network, so a node has at most one
thing in flight — its REQUEST, the PRIVILEGE, or its release.  Bulk-loaded
arrivals wait beside the heap (``repro.sim.schedulers``), so the heap's peak
length on a heavy replay is bounded by the node count whatever the number of
rounds; with the arrivals heapified into it, it read rounds × n.

Deterministic: events are counted, no clock is read.  The probe reads the
scheduler's private list; the drain loop carries no counter for it.
"""

from __future__ import annotations

import pytest

from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver


def peak_heap_depth(kind: str, n: int, rounds: int) -> int:
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
    heap = engine.scheduler._entries
    peak = len(heap)
    while engine.step():
        if len(heap) > peak:
            peak = len(heap)
    assert engine.pending_events == 0
    assert len(driver.entry_order) == rounds * n
    return peak


@pytest.mark.parametrize("kind, n", [("star", 1000), ("line", 200), ("tree", 127)])
def test_heap_depth_is_bounded_by_the_node_count_whatever_the_rounds(kind, n):
    few = peak_heap_depth(kind, n, rounds=5)
    many = peak_heap_depth(kind, n, rounds=50)
    assert 0 < few <= n
    assert many == few
