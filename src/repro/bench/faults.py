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
digests, recovery metrics) is gated exactly by :func:`check_fault_baseline`;
only the events/sec rates carry a tolerance, like the throughput gate.
``BENCH_faults.json`` at the repository root is the committed reference
(regenerate with ``repro bench --faults --write BENCH_faults.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.baselines.base import registry
from repro.sim.faults import FaultController
from repro.spec import FAULT_PROFILES, ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver

FAULT_BENCH_SCHEMA = "bench-faults/v1"

#: Profiles of the committed degradation matrix — one message-loss profile
#: and the crash of the token holder, the two failure modes Chapter 5's
#: liveness argument distinguishes.
DEGRADATION_PROFILES = ("drop1", "crash-holder")

#: Algorithms of the degradation matrix: every registered algorithm.
DEGRADATION_ALGORITHMS = tuple(registry.names())

#: Node count of the recovery acceptance cell.
RECOVERY_XLARGE_NODES = 100_000


@dataclass(frozen=True)
class FaultScenarioSpec:
    """One cell of the fault benchmark matrix."""

    algorithm: str
    n: int
    profile: str
    rounds: int = 5
    collect_metrics: bool = True

    @property
    def name(self) -> str:
        return f"{self.algorithm}-star-n{self.n}-heavy+{self.profile}"

    def experiment_spec(self) -> ExperimentSpec:
        """The cell as a canonical, shippable :class:`ExperimentSpec`.

        Seed 0 and star/heavy throughout, mirroring the throughput
        benchmark's frozen-cell convention.
        """
        return ExperimentSpec(
            algorithm=self.algorithm,
            topology=TopologySpec(kind="star", n=self.n),
            workload=WorkloadSpec(tier="heavy", rounds=self.rounds),
            seed=0,
            collect_metrics=self.collect_metrics,
            faults=FAULT_PROFILES[self.profile],
        )


def default_fault_matrix() -> List[FaultScenarioSpec]:
    """Degradation cells (every algorithm × profile), the DAG churn cell
    (repeated token-holder kill + restart), plus the recovery cells."""
    matrix = [
        FaultScenarioSpec(algorithm, 50, profile)
        for algorithm in DEGRADATION_ALGORITHMS
        for profile in DEGRADATION_PROFILES
    ]
    matrix.append(FaultScenarioSpec("dag", 50, "crash-churn"))
    # The partition + heal window on one token and one permission algorithm:
    # messages crossing the cut queue (or drop) until the heal, so the gated
    # outcome pins down both the degradation during the window and the full
    # catch-up after it.
    matrix.append(FaultScenarioSpec("dag", 50, "partition-heal"))
    matrix.append(FaultScenarioSpec("ricart-agrawala", 50, "partition-heal"))
    matrix.extend(recovery_matrix())
    return matrix


def recovery_matrix() -> List[FaultScenarioSpec]:
    """The token-regeneration cells: DAG, crash-recover, n=50 and 100k.

    The 100k cell runs one heavy round on the unobserved-metrics path (the
    fault injector keeps the network on the observed delivery path either
    way; dropping the collector just skips per-entry timing statistics).
    """
    return [
        FaultScenarioSpec("dag", 50, "crash-recover"),
        FaultScenarioSpec(
            "dag",
            RECOVERY_XLARGE_NODES,
            "crash-recover",
            rounds=1,
            collect_metrics=False,
        ),
    ]


def smoke_fault_matrix() -> List[FaultScenarioSpec]:
    """CI subset: both profiles on three contrasting algorithms + n=50 recovery."""
    matrix = [
        FaultScenarioSpec(algorithm, 50, profile)
        for algorithm in ("dag", "ricart-agrawala", "maekawa")
        for profile in DEGRADATION_PROFILES
    ]
    matrix.append(FaultScenarioSpec("dag", 50, "partition-heal"))
    matrix.append(FaultScenarioSpec("dag", 50, "crash-recover"))
    return matrix


def run_fault_scenario(spec: FaultScenarioSpec) -> Dict[str, Any]:
    """Run one fault cell and return its document row.

    Deterministic outcomes live at the top level of the row; host-dependent
    measurements live under ``"timing"`` (same split as the sweep rows).
    """
    experiment = spec.experiment_spec()
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
        "scenario": spec.name,
        "algorithm": spec.algorithm,
        "n": spec.n,
        "profile": spec.profile,
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
    matrix: Optional[Sequence[FaultScenarioSpec]] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the fault matrix and assemble the ``BENCH_faults.json`` document."""
    specs = list(matrix) if matrix is not None else default_fault_matrix()
    rows: List[Dict[str, Any]] = []
    for spec in specs:
        row = run_fault_scenario(spec)
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
        "schema": FAULT_BENCH_SCHEMA,
        "generated_by": "repro bench --faults",
        "scenarios": rows,
    }


def deterministic_fault_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """The fault-bench document minus host-dependent fields.

    Same contract as the sweep's ``deterministic_document``: two runs of the
    same matrix — any machine, any worker count — must agree byte-for-byte on
    the canonical JSON of this projection.
    """
    stripped = {
        key: value
        for key, value in document.items()
        if key != "generated_by"
    }
    stripped["scenarios"] = [
        {key: value for key, value in row.items() if key != "timing"}
        for row in document["scenarios"]
    ]
    return stripped


#: Deterministic row fields gated exactly (None-safe equality).
_EXACT_FIELDS = (
    "entries",
    "messages",
    "events",
    "finished_at",
    "total_faults",
    "fault_log_sha256",
    "unserved_nodes",
    "lost_requests",
    "protocol_error",
)
_EXACT_RECOVERY_FIELDS = (
    "token_lost_at",
    "regenerated_at",
    "new_holder",
    "reissued",
    "time_to_liveness",
)


def check_fault_baseline(
    current: Iterable[Dict[str, Any]],
    committed: Dict[str, Any],
    *,
    tolerance: float = 0.5,
) -> List[str]:
    """Compare fresh fault rows against the committed ``BENCH_faults.json``.

    Everything virtual-time (counts, digests, recovery metrics) must match
    *exactly* — a difference means fault replay is no longer deterministic,
    or recovery behaviour changed.  Only events/sec gets a (generous)
    tolerance; fault cells are small, so their rates are noisier than the
    throughput matrix's.
    """
    committed_by_name = {
        row["scenario"]: row for row in committed.get("scenarios", [])
    }
    problems: List[str] = []
    for row in current:
        reference = committed_by_name.get(row["scenario"])
        if reference is None:
            continue
        for field in _EXACT_FIELDS:
            if row.get(field) != reference.get(field):
                problems.append(
                    f"{row['scenario']}: {field} {row.get(field)!r} != committed "
                    f"{reference.get(field)!r} (fault replay no longer "
                    "deterministic?)"
                )
        current_recovery = row.get("recovery")
        committed_recovery = reference.get("recovery")
        if (current_recovery is None) != (committed_recovery is None):
            problems.append(
                f"{row['scenario']}: recovery section "
                f"{'appeared' if current_recovery else 'disappeared'} "
                "relative to the committed document"
            )
        elif current_recovery is not None:
            for field in _EXACT_RECOVERY_FIELDS:
                if current_recovery.get(field) != committed_recovery.get(field):
                    problems.append(
                        f"{row['scenario']}: recovery.{field} "
                        f"{current_recovery.get(field)!r} != committed "
                        f"{committed_recovery.get(field)!r}"
                    )
        reference_rate = (reference.get("timing") or {}).get("events_per_sec")
        current_rate = (row.get("timing") or {}).get("events_per_sec")
        if reference_rate and current_rate is not None:
            floor = reference_rate * (1.0 - tolerance)
            if current_rate < floor:
                problems.append(
                    f"{row['scenario']}: {current_rate:,.0f} ev/s is below "
                    f"{floor:,.0f} (committed {reference_rate:,.0f} "
                    f"- {tolerance:.0%} tolerance)"
                )
    return problems
