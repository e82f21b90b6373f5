"""What a schedule costs beyond itself: traced bytes, not a clock.

A heavy schedule is one ``CSRequest`` per request, held in the workload's
tuple for the whole replay.  Nothing else should grow with the number of
requests: building the schedule checks its ``(arrival_time, node)`` order
with no key tuple per request (56 bytes plus a 16-byte GC header each), and
replaying it loads the arrivals as a cursor over that tuple, each time read
off its request as its entry is built, of which one bounded chunk of
``(time, sequence, callback, payload)`` entries exists at a time (not one
4-tuple, sequence number and list slot per request).

``tracemalloc`` counts the bytes, so the figures are the same on every
machine; the bounds leave room for CPython's container growth policy, which
differs a little between versions.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.sim.schedulers import BULK_CHUNK
from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver
from repro.workload.requests import CSRequest, Workload


def traced(call):
    """``call()``'s ``(result, peak bytes above the start)`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def test_ordering_a_schedule_builds_nothing_per_request_but_its_tuple():
    # In order already, 200 nodes a round, as a heavy schedule is built.
    requests = [CSRequest(index % 200, float(index // 200)) for index in range(20000)]
    workload, peak = traced(lambda: Workload(tuple(requests)))
    assert workload.requests == tuple(requests)
    # The kept tuple is 8 B a request; checking the order reads the times
    # and the nodes into two lists, 8 B a request each and transient (a
    # schedule out of order is sorted in two one-key passes, no more).  A key
    # tuple per request would add 72.
    per_request = peak / len(requests)
    assert per_request <= 40, f"{per_request:.1f} B per request to order a schedule"


def test_a_heavy_replay_holds_its_schedule_once():
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=100),
        workload=WorkloadSpec(tier="heavy", rounds=200),
        collect_metrics=False,
    )
    topology = spec.topology.build()
    workload = spec.workload.build(topology, seed=spec.seed)
    system = spec.build_system(topology)
    result, peak = traced(lambda: ExperimentDriver(system, workload).run())
    assert result.completed_entries == len(workload) == 20000
    # One chunk of entries and what is in flight (bounded by the topology,
    # not the schedule).  A copy of the schedule as queued entries would add
    # ~110 B a request.
    per_request = peak / len(workload)
    assert per_request <= 48, f"{per_request:.1f} B per request above the schedule"


def test_only_one_chunk_of_a_bulk_load_is_ever_built():
    driver = ExperimentDriver.from_spec(
        ExperimentSpec(
            algorithm="dag",
            topology=TopologySpec(kind="star", n=100),
            workload=WorkloadSpec(tier="heavy", rounds=50),
            collect_metrics=False,
        )
    )
    engine = driver.system.engine
    driver._load_arrivals(engine)
    run = engine.scheduler._run
    assert len(run) == BULK_CHUNK < len(driver.workload) == engine.pending_events
    peak = 0
    while engine.step():
        peak = max(peak, len(run))
    assert peak == BULK_CHUNK
    assert len(driver.entry_order) == len(driver.workload)
