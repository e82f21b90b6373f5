"""The simulator's scenario matrices: every cell of every document, as data.

The paper's Section 6 is a comparison — the DAG algorithm against eight
baselines over topology x size x demand — so the matrix *is* the experiment.
It is written down once, here: a :class:`Cell` is a committed name plus the
:class:`~repro.spec.ExperimentSpec` it runs, a tier is a row of
:data:`TIERS`, and one function per document (:func:`bench_matrix`,
:func:`baseline_matrix`, :func:`fault_matrix`, :func:`sweep_matrix`) reads
the table.  ``repro.bench`` and ``repro.sweep`` import this module; it
imports neither.  The live service's cells are the runtime's
(:func:`repro.runtime.lockbench.lockbench_matrix`, a name plus a
:class:`~repro.spec_base.RuntimeSpec`).

Cell definitions are frozen: names key the committed ``BENCH_*.json`` rows
and the sweep derives each workload seed from the cell name
(:func:`scenario_seed`), so extend the table instead of editing it.  The
tier table is documented in ``benchmarks/README.md`` ("Scenario matrix").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.baselines import registry
from repro import spec as spec_module
from repro.exceptions import WorkloadError
from repro.spec import FAULT_PROFILES, XXLARGE_HEAVY_ROUNDS, ExperimentSpec, WorkloadSpec
from repro.spec_base import TopologySpec


@dataclass(frozen=True)
class Cell:
    """One cell of a simulator matrix: a committed name and what it runs."""

    name: str
    experiment: ExperimentSpec


class Rung(NamedTuple):
    """One row of the tier table: what ``document`` adds at ``tier``, as
    kinds x sizes x demands.  ``observed`` is the sweep's metrics switch
    (bench cells never collect)."""

    tier: str
    document: str
    sizes: Tuple[int, ...]
    kinds: Tuple[str, ...]
    demands: Tuple[str, ...]
    observed: bool = False

    def grid(self) -> List[Tuple[str, int, str]]:
        return [(k, n, d) for k in self.kinds for n in self.sizes for d in self.demands]


_ALL, _WIDE, _STAR = ("line", "star", "tree"), ("star", "tree"), ("star",)
_HEAVY, _SWEEP_DEMANDS = ("heavy",), ("light", "heavy", "bursty", "hotspot")

#: The rungs from ``default`` up are cumulative: a tier runs every rung up to
#: and including its own.  Star and tree only from 100k up (a 100k-hop line
#: measures topology pathology); the broadcast baselines stop at n=100.
LADDER = ("default", "large", "xlarge", "xxlarge", "xxxlarge")
TIERS = (
    Rung("smoke", "bench", (100, 1000), _ALL, _HEAVY),
    # n=100, not 25: the gate's signal comes from a single long replay.
    Rung("smoke", "baselines", (100,), _STAR, _HEAVY),
    Rung("smoke", "sweep", (9,), _STAR, ("heavy", "bursty"), observed=True),
    Rung("default", "bench", (100, 1000, 5000), _ALL, ("light", "heavy")),
    Rung("default", "baselines", (25, 100), _STAR, ("light", "heavy")),
    Rung("default", "sweep", (10, 50), _ALL, _SWEEP_DEMANDS, observed=True),
    Rung("large", "bench", (10_000,), _ALL, ("light", "heavy", "bursty")),
    Rung("large", "sweep", (10_000,), _WIDE, _HEAVY),
    Rung("xlarge", "bench", (100_000,), _WIDE, _HEAVY),
    Rung("xlarge", "sweep", (100_000,), _WIDE, _HEAVY),
    Rung("xxlarge", "bench", (1_000_000,), _WIDE, _HEAVY),
    Rung("xxlarge", "sweep", (1_000_000,), _WIDE, _HEAVY),
    # Construction-only (``repro bench --setup-only``): nobody drains 10M nodes.
    Rung("xxxlarge", "bench", (10_000_000,), _WIDE, _HEAVY),
    # The densest fault-free condition, crossed with FAULT_TIER_PROFILES.
    Rung("faults", "sweep", (50,), _STAR, _HEAVY, observed=True),
)

#: All nine algorithms of the comparison, in registration (= comparison) order.
SWEEP_ALGORITHMS = tuple(registry.names())
#: Every algorithm except the DAG itself, which has its own (larger) matrix.
BASELINE_ALGORITHMS = tuple(name for name in SWEEP_ALGORITHMS if name != "dag")
#: Profiles every algorithm faces in the sweep's fault tier; ``crash-recover``
#: is DAG-only (token regeneration) and gets one dedicated cell.
FAULT_TIER_PROFILES = (
    "drop1", "drop5", "lose-privilege", "lose-request", "crash-holder", "partition-heal",
)
#: ``repro bench --faults``: one message-loss profile and the crash of the
#: token holder, the two failure modes Chapter 5's liveness argument separates.
DEGRADATION_PROFILES = ("drop1", "crash-holder")


def _rungs(tier: str, document: str) -> List[Rung]:
    """The rows ``tier`` selects for ``document`` (cumulative along the ladder)."""
    selected = LADDER[: LADDER.index(tier) + 1] if tier in LADDER else (tier,)
    rungs = [rung for rung in TIERS if rung.document == document and rung.tier in selected]
    if not any(rung.tier == tier for rung in rungs):
        raise WorkloadError(f"the {document} matrix has no {tier!r} tier")
    return rungs


def tier_workload(tier: str, n: int, *, heavy_rounds: int) -> WorkloadSpec:
    """The frozen tier parameterisation, spelled out so a cell's JSON says
    what runs: heavy demand is ``heavy_rounds`` rounds (10 for bench, 5 for
    sweep) below :data:`~repro.spec.STREAMING_NODE_THRESHOLD` nodes and
    :data:`~repro.spec.XXLARGE_HEAVY_ROUNDS` rounds from it up.  The
    threshold is read from :mod:`repro.spec` at call time, so one setting
    moves both."""
    if tier != "heavy":
        return WorkloadSpec(tier=tier)
    if n >= spec_module.STREAMING_NODE_THRESHOLD:
        return WorkloadSpec(tier="heavy", rounds=XXLARGE_HEAVY_ROUNDS)
    return WorkloadSpec(tier="heavy", rounds=heavy_rounds)


def scenario_seed(name: str) -> int:
    """A sweep cell's workload seed, a pure function of its name — so a cell
    replays the same workload alone, first, last, or in any child process."""
    digest = hashlib.sha256(f"sweep:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def validate_algorithms(names: Optional[Sequence[str]]) -> None:
    """Reject unknown algorithm names with the registry's listing (before any
    worker forks, instead of a bare ``KeyError`` inside a child process)."""
    known = registry.names()
    unknown = [name for name in names or () if name not in known]
    if unknown:
        raise WorkloadError(
            f"unknown algorithm{'s' if len(unknown) != 1 else ''} "
            f"{unknown}; known: {known}"
        )


# --------------------------------------------------------------------------- #
# cell constructors
# --------------------------------------------------------------------------- #
def _cell(name: str, algorithm: str, kind: str, n: int, workload: WorkloadSpec, **settings) -> Cell:
    topology = TopologySpec(kind=kind, n=n)
    spec = ExperimentSpec(algorithm=algorithm, topology=topology, workload=workload, **settings)
    return Cell(name, spec)


def bench_cell(kind: str, n: int, demand: str, *, algorithm: str = "dag") -> Cell:
    """A throughput cell: seed 0, no metrics collector — the configuration
    the committed rows were recorded in.  DAG cells are named ``kind-nN-demand``;
    the baselines prefix theirs with the algorithm."""
    name = f"{kind}-n{n}-{demand}"
    workload = tier_workload(demand, n, heavy_rounds=10)
    return _cell(
        name if algorithm == "dag" else f"{algorithm}-{name}",
        algorithm, kind, n, workload, seed=0, collect_metrics=False,
    )


def fault_cell(
    algorithm: str, n: int, profile: str, *, rounds: int = 5, collect_metrics: bool = True
) -> Cell:
    """A ``repro bench --faults`` cell: star/heavy under a named fault profile."""
    return _cell(
        f"{algorithm}-star-n{n}-heavy+{profile}",
        algorithm, "star", n, WorkloadSpec(tier="heavy", rounds=rounds),
        seed=0, collect_metrics=collect_metrics, faults=FAULT_PROFILES[profile],
    )


def sweep_cell(
    algorithm: str,
    kind: str,
    n: int,
    tier: str,
    *,
    collect_metrics: bool = True,
    faults: Optional[str] = None,
) -> Cell:
    """A sweep cell, named ``algo-kind-nN-tier[+profile]`` and seeded from
    that name.  A fault cell is its own cell (own name, seed and row), so the
    fault tier never perturbs fault-free documents."""
    if faults is not None and faults not in FAULT_PROFILES:
        raise WorkloadError(
            f"unknown fault profile {faults!r}; known: {sorted(FAULT_PROFILES)}"
        )
    name = f"{algorithm}-{kind}-n{n}-{tier}" + (f"+{faults}" if faults else "")
    return _cell(
        name, algorithm, kind, n, tier_workload(tier, n, heavy_rounds=5),
        seed=scenario_seed(name),
        collect_metrics=collect_metrics,
        faults=FAULT_PROFILES[faults] if faults is not None else None,
    )


def cell_from_spec(spec: ExperimentSpec) -> Cell:
    """The sweep cell a shipped experiment spec describes, or a refusal.

    Guards the sweep's determinism anchor against a hand-edited shard file:
    the faults must be a named profile (the row name has to carry them), the
    seed must be the one the name derives, and the whole spec must equal the
    frozen cell definition — anything else would run a configuration the row
    name does not describe.
    """
    faults = None
    if spec.faults is not None:
        faults = next((p for p, f in FAULT_PROFILES.items() if f == spec.faults), None)
        if faults is None:
            raise WorkloadError(
                "spec carries a FaultSpec that matches no named fault "
                f"profile; known profiles: {sorted(FAULT_PROFILES)}"
            )
    cell = sweep_cell(
        spec.algorithm,
        spec.topology.kind,
        spec.topology.n,
        spec.workload.tier,
        collect_metrics=spec.collect_metrics,
        faults=faults,
    )
    if spec.seed != cell.experiment.seed:
        raise WorkloadError(
            f"spec for {cell.name!r} carries seed {spec.seed}, but the "
            f"sweep derives {cell.experiment.seed} from the scenario name; "
            "refusing to replay a mislabelled workload"
        )
    if spec != cell.experiment:
        raise WorkloadError(
            f"spec for {cell.name!r} does not match the sweep's frozen "
            "cell definition (tier parameters, latency, topology "
            "seed and record_trace must be the matrix defaults)"
        )
    return cell


# --------------------------------------------------------------------------- #
# one matrix function per document
# --------------------------------------------------------------------------- #
def bench_matrix(tier: str = "default") -> List[Cell]:
    """``repro bench``: the DAG throughput matrix (``BENCH_throughput.json``)."""
    return [
        bench_cell(kind, n, demand)
        for rung in _rungs(tier, "bench")
        for kind, n, demand in rung.grid()
    ]


def baseline_matrix(tier: str = "default") -> List[Cell]:
    """``repro bench --baselines``: the eight baselines (``BENCH_baselines.json``)."""
    return [
        bench_cell(kind, n, demand, algorithm=algorithm)
        for rung in _rungs(tier, "baselines")
        for algorithm in BASELINE_ALGORITHMS
        for kind, n, demand in rung.grid()
    ]


def fault_matrix(tier: str = "default") -> List[Cell]:
    """``repro bench --faults``: degradation + recovery (``BENCH_faults.json``).

    Every algorithm (smoke: three contrasting ones) under both degradation
    profiles; the DAG churn cell; a partition + heal window on one token and
    one permission algorithm; and the token-regeneration cells at n=50 and at
    100k (one heavy round, no collector — the injector observes either way).
    """
    smoke = tier == "smoke"
    algorithms = ("dag", "ricart-agrawala", "maekawa") if smoke else SWEEP_ALGORITHMS
    matrix = [fault_cell(a, 50, p) for a in algorithms for p in DEGRADATION_PROFILES]
    if smoke:
        return matrix + [
            fault_cell("dag", 50, "partition-heal"),
            fault_cell("dag", 50, "crash-recover"),
        ]
    return matrix + [
        fault_cell("dag", 50, "crash-churn"),
        fault_cell("dag", 50, "partition-heal"),
        fault_cell("ricart-agrawala", 50, "partition-heal"),
        fault_cell("dag", 50, "crash-recover"),
        fault_cell("dag", 100_000, "crash-recover", rounds=1, collect_metrics=False),
    ]


def sweep_matrix(
    tier: str = "default",
    *,
    algorithms: Optional[Sequence[str]] = None,
) -> List[Cell]:
    """``repro sweep``: the nine-algorithm comparison, or its fault tier.

    An algorithm joins a rung iff the registry's ``max_recommended_nodes``
    admits the rung's size (message blow-up prices the broadcast schemes out
    at 10k, Raymond's per-node queues price it out at 1M).  The fault tier
    crosses one condition with :data:`FAULT_TIER_PROFILES` and appends the
    DAG's ``crash-recover`` contrast cell.
    """
    validate_algorithms(algorithms)
    names = tuple(algorithms) if algorithms is not None else SWEEP_ALGORITHMS
    profiles = FAULT_TIER_PROFILES if tier == "faults" else (None,)
    matrix = [
        sweep_cell(algorithm, kind, n, demand, collect_metrics=rung.observed, faults=profile)
        for rung in _rungs(tier, "sweep")
        for algorithm in names
        if algorithm in registry.names_for_scale(max(rung.sizes))
        for kind, n, demand in rung.grid()
        for profile in profiles
    ]
    if tier == "faults" and "dag" in names:
        matrix.append(sweep_cell("dag", "star", 50, "heavy", faults="crash-recover"))
    return matrix


# --------------------------------------------------------------------------- #
# spec shards: a slice of the sweep matrix as a file
# --------------------------------------------------------------------------- #
#: Schema tag of a sweep spec-shard file (a JSON list of canonical specs).
SPEC_SHARD_SCHEMA = "sweep-specs/v1"


def write_spec_shard(matrix: Sequence[Cell], path: str) -> None:
    """Write ``matrix`` as a spec-shard file: everything another machine needs
    to run this slice and produce rows that merge byte-identically into the
    full document (``repro sweep --from-specs`` + ``--merge``)."""
    document = {
        "schema": SPEC_SHARD_SCHEMA,
        "scenarios": [cell.experiment.to_dict() for cell in matrix],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_spec_shard(path: str) -> List[Cell]:
    """Load a spec-shard file back into sweep cells (see :func:`cell_from_spec`)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("schema") != SPEC_SHARD_SCHEMA:
        raise WorkloadError(
            f"{path}: not a sweep spec-shard file "
            f"(expected schema {SPEC_SHARD_SCHEMA!r})"
        )
    return [
        cell_from_spec(ExperimentSpec.from_dict(entry))
        for entry in document.get("scenarios", [])
    ]
