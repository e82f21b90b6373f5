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
(regenerate with ``repro bench --faults --write BENCH_faults.json``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.baselines.base import registry
from repro.bench.throughput import BenchCell
from repro.benchdoc import FAULTS
from repro.sim.faults import FaultController
from repro.spec import FAULT_PROFILES, ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver

#: Profiles of the committed degradation matrix — one message-loss profile
#: and the crash of the token holder, the two failure modes Chapter 5's
#: liveness argument distinguishes.
DEGRADATION_PROFILES = ("drop1", "crash-holder")

#: Algorithms of the degradation matrix: every registered algorithm.
DEGRADATION_ALGORITHMS = tuple(registry.names())

#: Node count of the recovery acceptance cell.
RECOVERY_XLARGE_NODES = 100_000


def fault_cell(
    algorithm: str,
    n: int,
    profile: str,
    *,
    rounds: int = 5,
    collect_metrics: bool = True,
) -> BenchCell:
    """One fault cell: ``algorithm`` under the named fault ``profile``.

    Seed 0 and star/heavy throughout, mirroring the throughput benchmark's
    frozen-cell convention; the experiment is a canonical, shippable
    :class:`ExperimentSpec`.
    """
    return BenchCell(
        f"{algorithm}-star-n{n}-heavy+{profile}",
        ExperimentSpec(
            algorithm=algorithm,
            topology=TopologySpec(kind="star", n=n),
            workload=WorkloadSpec(tier="heavy", rounds=rounds),
            seed=0,
            collect_metrics=collect_metrics,
            faults=FAULT_PROFILES[profile],
        ),
    )


def default_fault_matrix() -> List[BenchCell]:
    """Degradation cells (every algorithm × profile), the DAG churn cell
    (repeated token-holder kill + restart), plus the recovery cells."""
    matrix = [
        fault_cell(algorithm, 50, profile)
        for algorithm in DEGRADATION_ALGORITHMS
        for profile in DEGRADATION_PROFILES
    ]
    matrix.append(fault_cell("dag", 50, "crash-churn"))
    # The partition + heal window on one token and one permission algorithm:
    # messages crossing the cut queue (or drop) until the heal, so the gated
    # outcome pins down both the degradation during the window and the full
    # catch-up after it.
    matrix.append(fault_cell("dag", 50, "partition-heal"))
    matrix.append(fault_cell("ricart-agrawala", 50, "partition-heal"))
    matrix.extend(recovery_matrix())
    return matrix


def recovery_matrix() -> List[BenchCell]:
    """The token-regeneration cells: DAG, crash-recover, n=50 and 100k.

    The 100k cell runs one heavy round on the unobserved-metrics path (the
    fault injector keeps the network on the observed delivery path either
    way; dropping the collector just skips per-entry timing statistics).
    """
    return [
        fault_cell("dag", 50, "crash-recover"),
        fault_cell(
            "dag",
            RECOVERY_XLARGE_NODES,
            "crash-recover",
            rounds=1,
            collect_metrics=False,
        ),
    ]


def smoke_fault_matrix() -> List[BenchCell]:
    """CI subset: both profiles on three contrasting algorithms + n=50 recovery."""
    matrix = [
        fault_cell(algorithm, 50, profile)
        for algorithm in ("dag", "ricart-agrawala", "maekawa")
        for profile in DEGRADATION_PROFILES
    ]
    matrix.append(fault_cell("dag", 50, "partition-heal"))
    matrix.append(fault_cell("dag", 50, "crash-recover"))
    return matrix


def run_fault_scenario(cell: BenchCell) -> Dict[str, Any]:
    """Run one fault cell and return its document row.

    Deterministic outcomes live at the top level of the row; host-dependent
    measurements live under ``"timing"`` (same split as the sweep rows).
    """
    experiment = cell.experiment
    topology = experiment.topology.build()
    workload = experiment.workload.build(topology, seed=experiment.seed)
    system = experiment.build_system(topology)
    controller = FaultController(experiment.faults, name=experiment.name)
    driver = ExperimentDriver(system, workload, faults=controller)
    start = time.perf_counter()
    result = driver.run(max_events=50_000_000)
    wall = time.perf_counter() - start
    events = system.engine.processed_events
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
    matrix: Optional[Sequence[BenchCell]] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the fault matrix and assemble the ``BENCH_faults.json`` document."""
    cells = list(matrix) if matrix is not None else default_fault_matrix()
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
