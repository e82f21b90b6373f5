"""What a schedule costs: traced bytes, not a clock.

A workload stores columns, not requests.  Building a schedule from request
objects keeps two lists (times and nodes; durations only when some differ
from 1.0) and checks their ``(arrival_time, node)`` order with no key tuple
per request (56 bytes plus a 16-byte GC header each).  A heavy schedule is
one value, the sorted node tuple and a round count, so building it costs
O(n) bytes at any round count, and replaying it draws the columns as its
entries are built, of which one bounded chunk of ``(time, sequence,
callback, payload)`` entries exists at a time: what a heavy replay holds
grows with the round count only by the entry order it reports and by the
driver's backlog, where a request waits while its node is busy (heavy
demand arrives faster than one critical section at a time can serve it).

``tracemalloc`` counts the bytes, so the figures are the same on every
machine; the bounds leave room for CPython's container growth policy, which
differs a little between versions.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

from repro.sim.engine import BULK_CHUNK
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


def test_ordering_a_schedule_builds_nothing_per_request_but_its_columns():
    # In order already, 200 nodes a round, as a heavy schedule is laid out.
    requests = [CSRequest(index % 200, float(index // 200)) for index in range(20000)]
    workload, peak = traced(lambda: Workload(tuple(requests)))
    assert workload.requests == tuple(requests)
    # The kept times and nodes are 8 B a request each; the durations, all
    # 1.0, are read into a third list and dropped.  Checking the order
    # makes nothing per request (a schedule out of order is permuted by
    # two one-key passes over its indices, no more).  A key tuple per
    # request would add 72.
    per_request = peak / len(requests)
    assert per_request <= 40, f"{per_request:.1f} B per request to order a schedule"


def test_building_a_heavy_schedule_costs_bytes_per_node_not_per_request():
    topology = TopologySpec(kind="star", n=1000).build()
    workload, peak = traced(lambda: WorkloadSpec(tier="heavy", rounds=200).build(topology))
    assert len(workload) == 200_000
    # The generator's node tuple, the sorted copy the schedule keeps, and
    # the RNG every generator seeds: under 64 B a node, 64 KB here.  The
    # same schedule as request objects was 17.7 MB (88 B a request).
    assert peak <= 64 * 1000, f"{peak} B to build a 200-round heavy schedule on star(1000)"


def heavy_replay_peak(rounds: int) -> int:
    """Traced peak of building and replaying ``rounds`` heavy rounds on
    star(100), above the system and the entry order the replay reports."""
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=100),
        workload=WorkloadSpec(tier="heavy", rounds=rounds),
        collect_metrics=False,
    )
    topology = spec.topology.build()
    system = spec.build_system(topology)

    def replay():
        driver = ExperimentDriver(system, spec.workload.build(topology, seed=spec.seed))
        return driver, driver.run()

    (driver, result), peak = traced(replay)
    assert result.completed_entries == len(driver.workload) == 100 * rounds
    # The entry order grows with the rounds by design: one list, the
    # driver's, which the result reports as it is.
    assert result.entry_order is driver.entry_order
    return peak - sys.getsizeof(driver.entry_order)


def test_a_heavy_replay_grows_only_by_its_entry_order_and_backlog():
    # One chunk of entries and what is in flight, bounded by the topology:
    # about 250 KB at 50 rounds and at 200.  Beyond it, each round's 100
    # requests arrive at once and are served one at a time, so nearly every
    # one waits in the driver's backlog: one deque slot each, 64 to a
    # 528-byte block.  The schedule as request objects added 65 B for every
    # one of the 15 000 extra requests.
    extra = 100 * (200 - 50)
    grown = heavy_replay_peak(200) - heavy_replay_peak(50)
    assert grown <= 8 * 1024 + 528 * extra // 64, f"{grown} B more at 200 rounds than at 50"


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
    run = engine._run
    assert len(run) == BULK_CHUNK < len(driver.workload) == engine.pending_events
    peak = 0
    while engine.run(max_events=1):
        peak = max(peak, len(run))
    assert peak == BULK_CHUNK
    assert len(driver.entry_order) == len(driver.workload)
