"""Fault-tier benchmark: degradation under injected faults, recovery to liveness.

Two questions the throughput benchmark cannot answer:

* **Degradation** — under the same injected fault load, how far does each
  algorithm get?  Every cell runs one frozen fault profile against one
  algorithm on the densest fault-free condition (star, heavy demand) and
  records the deterministic outcome: entries completed, unserved nodes, the
  fault-log fingerprint.  The contrast the paper's liveness discussion
  predicts — token loss starves the token algorithms outright, quorum
  starvation stalls (or protocol-errors) the permission-based ones — becomes
  committed data.

* **Recovery** — after killing the token holder, how long until the DAG
  protocol re-achieves liveness via token regeneration
  (:mod:`repro.core.recovery`)?  Measured as ``time_to_liveness``: virtual
  time from the fault that lost the token to the first post-regeneration
  critical-section entry.  Benchmarked at n=50 and at the 100k-node tier —
  the acceptance criterion of the robustness milestone.

Everything deterministic in the document (counts, finish times, fault-log
digests, recovery metrics) is gated exactly (:data:`repro.benchdoc.FAULTS`);
only the events/sec rates carry a tolerance, like the throughput gate.
``BENCH_faults.json`` at the repository root is the committed reference
(regenerate with ``repro bench --faults --output BENCH_faults.json``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.benchdoc import FAULTS
from repro.cells import Cell, fault_matrix
from repro.workload.driver import ExperimentDriver


def run_fault_scenario(cell: Cell) -> Dict[str, Any]:
    """Run one fault cell and return its document row.

    Deterministic outcomes live at the top level of the row; host-dependent
    measurements live under ``"timing"`` (same split as the sweep rows).
    """
    experiment = cell.experiment
    driver = ExperimentDriver.from_spec(experiment)
    start = time.perf_counter()
    result = driver.run(max_events=50_000_000)
    wall = time.perf_counter() - start
    events = driver.system.engine.processed_events
    summary = result.fault_summary or {}
    row: Dict[str, Any] = {
        "scenario": cell.name,
        "algorithm": experiment.algorithm,
        "n": experiment.topology.n,
        # The committed cell name ends in ``+profile`` (see fault_cell).
        "profile": cell.name.partition("+")[2],
        "entries": result.completed_entries,
        "messages": result.total_messages,
        "events": events,
        "finished_at": round(result.finished_at, 9),
        "total_faults": summary.get("total_faults"),
        "fault_log_sha256": summary.get("fault_log_sha256"),
        "unserved_nodes": summary.get("unserved_nodes"),
        "lost_requests": summary.get("lost_requests"),
        "protocol_error": summary.get("protocol_error"),
        "timing": {
            "wall_seconds": round(wall, 4),
            "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        },
    }
    recovery = summary.get("recovery")
    if recovery is not None:
        row["recovery"] = {
            "token_lost_at": recovery.get("token_lost_at"),
            "regenerated_at": recovery.get("regenerated_at"),
            "new_holder": recovery.get("new_holder"),
            "reissued": recovery.get("reissued"),
            "time_to_liveness": recovery.get("time_to_liveness"),
        }
    return row


def run_fault_benchmark(
    *,
    matrix: Optional[Sequence[Cell]] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the fault matrix and assemble the ``BENCH_faults.json`` document."""
    cells = list(matrix) if matrix is not None else fault_matrix()
    rows: List[Dict[str, Any]] = []
    for cell in cells:
        row = run_fault_scenario(cell)
        rows.append(row)
        if verbose:
            recovery = row.get("recovery") or {}
            liveness = recovery.get("time_to_liveness")
            detail = (
                f"time-to-liveness {liveness}"
                if liveness is not None
                else f"{row['entries']} entries, {row['unserved_nodes']} unserved"
            )
            print(f"{row['scenario']:<44} {detail}")
    return {
        "schema": FAULTS.schema,
        "generated_by": "repro bench --faults",
        "scenarios": rows,
    }
