"""Child-process execution of one sweep cell.

Every cell runs in a fresh child process, which buys three things the
in-process benchmark harness cannot provide:

* **peak-RSS isolation** — ``ru_maxrss`` in a fresh child is a true
  per-scenario peak, not a running maximum across the whole sweep;
* **crash isolation** — a scenario that segfaults, OOMs, or trips a protocol
  assertion takes down only its own process; the parent records the failure
  and the rest of the matrix completes;
* **determinism** — each child rebuilds its entire system from the cell's
  spec (which carries the name-derived seed), so no state leaks between cells.

The module-level entry points are picklable, so the runner works under any
``multiprocessing`` start method (``fork``, ``spawn``, ``forkserver``).
"""

from __future__ import annotations

import os
import resource
import time
import traceback
from typing import Any, Dict

from repro.cells import Cell
from repro.spec import ExperimentSpec
from repro.topology.metrics import diameter
from repro.workload.driver import ExperimentDriver

#: Exit status of a child whose cell's fault spec sets
#: ``FaultSpec.worker_crash`` (the ``"worker-crash"`` profile): it dies with
#: this code before running anything, which the crash-isolation tests use.
CRASH_EXIT_CODE = 17

#: Event budget per scenario; generous because the 10k-node cells are large.
MAX_EVENTS_PER_SCENARIO = 50_000_000


def _identity(cell: Cell, status: str) -> Dict[str, Any]:
    """The head every row shares: what the cell is, read off its spec."""
    experiment = cell.experiment
    return {
        "scenario": cell.name,
        "algorithm": experiment.algorithm,
        "kind": experiment.topology.kind,
        "n": experiment.topology.n,
        "workload": experiment.workload.tier,
        "seed": experiment.seed,
        "status": status,
    }


def execute_scenario(cell: Cell) -> Dict[str, Any]:
    """Run one cell in the *current* process and return its result row.

    The row separates deterministic virtual-time outcomes (counts, per-entry
    costs, the entry-order digest) from host-dependent measurements, which
    live under the ``"timing"`` key so the merged document can be compared
    byte-for-byte across runs and worker counts after stripping timing.
    """
    # The clock starts between the workload and the system: topology and
    # workload construction stay outside the measured rate.
    experiment = cell.experiment
    topology = experiment.topology.build()
    workload = experiment.workload.build(topology, seed=experiment.seed)
    start = time.perf_counter()
    driver = ExperimentDriver.from_spec(experiment, topology=topology, workload=workload)
    system = driver.system
    result = driver.run(max_events=MAX_EVENTS_PER_SCENARIO)
    wall = time.perf_counter() - start
    events = system.engine.processed_events
    row = _identity(cell, "ok")
    row.update(
        {
            "entries": result.completed_entries,
            "messages": result.total_messages,
            "events": events,
            "messages_per_entry": round(result.messages_per_entry, 4),
            "messages_by_type": result.messages_by_type,
            "mean_waiting_time": (
                round(result.mean_waiting_time, 9)
                if result.mean_waiting_time is not None
                else None
            ),
            "max_sync_delay": result.max_sync_delay,
            "entry_order_sha256": result.entry_order_sha256,
            "finished_at": round(result.finished_at, 9),
            "topology_diameter": diameter(topology),
            "timing": {
                "wall_seconds": round(wall, 4),
                "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                # Under "timing" on purpose: the node backend changes how fast
                # state is stored and touched, never what happens, and
                # deterministic documents strip this key — which is what lets
                # tests/properties/test_backend_identity.py compare object
                # and compact rows field for field.
                "node_backend": system.node_backend,
            },
        }
    )
    if experiment.faults is not None:
        # Added only on fault cells so fault-free documents stay byte-
        # identical to earlier releases.  The committed cell name ends in
        # ``+profile`` (see repro.cells.sweep_cell).
        row["fault_profile"] = cell.name.partition("+")[2]
        row["faults"] = result.fault_summary
    return row


def error_row(cell: Cell, status: str, **extra: Any) -> Dict[str, Any]:
    """A result row for a cell that did not finish normally."""
    row = _identity(cell, status)
    row["timing"] = {}
    if cell.experiment.faults is not None:
        row["fault_profile"] = cell.name.partition("+")[2]
    row.update(extra)
    return row


def child_main(payload: Dict[str, Any], connection) -> None:
    """Entry point of the per-cell child process.

    ``payload`` is ``{"name", "experiment": spec.to_dict()}`` — plain data,
    picklable under every start method, re-validated here through
    :meth:`ExperimentSpec.from_dict`.  Sends exactly one result row back
    through ``connection``; an uncaught exception becomes an ``"error"`` row,
    so only a hard process death (the crash-isolation case) leaves the parent
    without a row.
    """
    cell = Cell(payload["name"], ExperimentSpec.from_dict(payload["experiment"]))
    if cell.experiment.faults is not None and cell.experiment.faults.worker_crash:
        # The structured worker-crash fault: the harness-level analogue of a
        # node crash, used by the crash-isolation tests.
        os._exit(CRASH_EXIT_CODE)
    try:
        row = execute_scenario(cell)
    except BaseException as exc:
        # Truncated: a row larger than the OS pipe buffer would block the
        # child in send() forever and hang the parent's sentinel wait.
        row = error_row(
            cell,
            "error",
            error=f"{type(exc).__name__}: {exc}"[:2000],
            traceback=traceback.format_exc(limit=10)[:8000],
        )
    connection.send(row)
    connection.close()
