"""Construction-only benchmark: what does it cost to *stand up* a scenario?

The throughput benchmark measures the drain; at the million-node tier the
interesting question shifts to the setup path — topology construction,
system (node) construction, and loading the workload's arrivals into the
engine.  This harness times exactly those three phases and records peak RSS,
**without** draining the run, so CI can smoke-test the 1M tier in a couple
of minutes instead of the tens it takes to replay it.

"Load workload" is the replay's own bulk load: every arrival is scheduled
(``loaded_arrivals`` equals ``total_requests`` on every row) and the first
chunk of entries is built from the schedule's columns, the only part of
them drawn before the drain.

The document (``BENCH_xxlarge_setup.fresh.json`` in CI) is informational
plus one hard gate: an optional per-cell wall budget (``--budget-seconds``)
that fails the run when construction regresses past it.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.cells import Cell
from repro.workload.driver import ExperimentDriver
from repro.workload.requests import paused_collector

#: Cells below this node count have no interesting setup cost; the default
#: construction matrix keeps only the large-tier cells of whatever matrix
#: the caller selected.
CONSTRUCTION_MIN_NODES = 100_000


def construction_matrix(matrix: Sequence[Cell]) -> List[Cell]:
    """The subset of ``matrix`` worth construction-benchmarking (large cells)."""
    return [
        cell
        for cell in matrix
        if cell.experiment.topology.n >= CONSTRUCTION_MIN_NODES
    ]


def run_setup_scenario(cell: Cell) -> Dict[str, Any]:
    """Build one scenario end to end — topology, workload, system, arrival
    load — timing each phase, without draining a single protocol event.

    The load runs with the collector paused, as it does inside
    :meth:`ExperimentDriver.run`: the row prices the load a replay pays."""
    experiment = cell.experiment
    start = time.perf_counter()
    topology = experiment.topology.build()
    topology_seconds = time.perf_counter() - start

    start = time.perf_counter()
    workload = experiment.workload.build(topology, seed=experiment.seed)
    workload_seconds = time.perf_counter() - start

    start = time.perf_counter()
    system = experiment.build_system(topology)
    system_seconds = time.perf_counter() - start

    start = time.perf_counter()
    driver = ExperimentDriver(system, workload)
    with paused_collector():  # as every replay loads, inside ExperimentDriver.run
        driver._load_arrivals(system.engine)
    load_seconds = time.perf_counter() - start

    total = topology_seconds + workload_seconds + system_seconds + load_seconds
    return {
        "scenario": cell.name,
        "kind": experiment.topology.kind,
        "n": experiment.topology.n,
        "demand": experiment.workload.tier,
        "total_requests": len(workload),
        "loaded_arrivals": system.engine.pending_events,
        "topology_seconds": round(topology_seconds, 4),
        "workload_seconds": round(workload_seconds, 4),
        "system_seconds": round(system_seconds, 4),
        "load_seconds": round(load_seconds, 4),
        "setup_seconds": round(total, 4),
        "node_backend": system.node_backend,
        #: Process-lifetime peak RSS sampled after this cell (a running
        #: maximum across the run, like the throughput document's field).
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_setup_benchmark(
    matrix: Sequence[Cell],
    *,
    budget_seconds: Optional[float] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the construction-only benchmark and assemble its JSON document.

    Args:
        matrix: the cells to stand up (usually ``construction_matrix(...)``).
        budget_seconds: optional per-cell wall budget; cells exceeding it are
            listed under ``"over_budget"`` and flip ``"within_budget"`` to
            ``False`` (the CLI exits non-zero on that).
        verbose: print one line per cell as it finishes.
    """
    scenarios: List[Dict[str, Any]] = []
    over_budget: List[str] = []
    for cell in matrix:
        # The previous cell's system is a reference cycle (its network and
        # nodes point at each other), which only the collector frees: free
        # it here, off the clock, so no cell's numbers include a collector
        # pass over its predecessor's garbage.
        gc.collect()
        row = run_setup_scenario(cell)
        scenarios.append(row)
        if budget_seconds is not None and row["setup_seconds"] > budget_seconds:
            over_budget.append(
                f"{row['scenario']}: setup took {row['setup_seconds']:.1f}s "
                f"(budget {budget_seconds:.1f}s)"
            )
        if verbose:
            print(
                f"{row['scenario']:<24} topology {row['topology_seconds']:>7.2f}s  "
                f"system {row['system_seconds']:>7.2f}s  "
                f"load {row['load_seconds']:>6.2f}s  "
                f"rss {row['peak_rss_kb'] // 1024} MB"
            )
    document: Dict[str, Any] = {
        "schema": "bench-setup/v1",
        "generated_by": "repro bench --setup-only",
        "scenarios": scenarios,
        "within_budget": not over_budget,
    }
    if budget_seconds is not None:
        document["budget_seconds"] = budget_seconds
    if over_budget:
        document["over_budget"] = over_budget
    return document
