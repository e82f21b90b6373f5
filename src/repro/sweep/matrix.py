"""The sweep scenario matrix: algorithm x topology x size x workload tier.

The paper's headline result is a *comparison*: the DAG algorithm against the
classical mutual-exclusion baselines under identical workloads.  This module
defines that comparison as data — one :class:`SweepScenario` per cell of the
matrix — so the sharded runner can execute cells in any order, in any process,
and still produce the same merged result.

Determinism is anchored per scenario, not per run: every scenario derives its
workload seed from its own name (:func:`scenario_seed`), so the virtual-time
outcome of a cell is independent of which worker executes it, how many workers
exist, and what ran before it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.baselines import registry
from repro.exceptions import WorkloadError
from repro.spec import (
    FAULT_PROFILES,
    STREAMING_NODE_THRESHOLD,
    WORKLOAD_TIERS,
    XXLARGE_HEAVY_ROUNDS,
    ExperimentSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.topology.base import Topology
from repro.workload.requests import Workload

#: All nine algorithms of the paper's comparison (eight baselines + the DAG),
#: straight from the registry (registration order is the comparison order).
SWEEP_ALGORITHMS = tuple(registry.names())

#: Node counts of the large (10k/100k) and xxlarge (1M) tiers; eligibility
#: is a registry capability query, not a hand-maintained name tuple — an
#: algorithm joins a tier iff its declared ``max_recommended_nodes`` admits
#: the tier's size (message blow-up prices the broadcast schemes out at 10k;
#: Raymond's per-node queues — the paper's Section 6.4 storage cost — price
#: it out at 1M).
LARGE_TIER_NODES = 10_000
XLARGE_TIER_NODES = 100_000
XXLARGE_TIER_NODES = 1_000_000

#: Back-compat aliases for the tuples this module used to hand-maintain;
#: now derived from the capability metadata on the system classes.
LARGE_TIER_ALGORITHMS = tuple(registry.names_for_scale(LARGE_TIER_NODES))
XXLARGE_TIER_ALGORITHMS = tuple(registry.names_for_scale(XXLARGE_TIER_NODES))

_TOPOLOGY_KINDS = ("line", "star", "tree")
_SIZES = (10, 50)
_WORKLOAD_TIERS = ("light", "heavy", "bursty", "hotspot")


def validate_algorithms(names: Optional[Sequence[str]]) -> None:
    """Reject unknown algorithm names with the registry's listing.

    Called by every matrix builder (and the CLI before it forks workers), so
    a typo in ``--algorithms`` fails immediately with the known names
    instead of surfacing as a bare ``KeyError`` inside a child process.
    """
    if names is None:
        return
    known = registry.names()
    unknown = [name for name in names if name not in known]
    if unknown:
        raise WorkloadError(
            f"unknown algorithm{'s' if len(unknown) != 1 else ''} "
            f"{unknown}; known: {known}"
        )


def scenario_seed(name: str) -> int:
    """Deterministic per-scenario workload seed derived from the name alone.

    Keeping the seed a pure function of the scenario name makes every cell's
    virtual-time outcome independent of worker scheduling: a scenario run
    alone, first, last, or in any child process always replays the same
    workload.
    """
    digest = hashlib.sha256(f"sweep:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class SweepScenario:
    """One cell of the sweep matrix.

    ``collect_metrics=False`` switches the cell to the network's unobserved
    fast path (no per-entry timing statistics), which the 10k-node tier uses
    to stay in the seconds range.

    ``node_backend`` picks object nodes vs the columnar array core for the
    algorithms that declare both ("auto" engages the columns at
    :data:`~repro.core.compact_state.COMPACT_NODE_BACKEND_THRESHOLD` nodes).
    It affects wall clock only — replays are byte-identical across backends
    (the CI ``backend-identity`` step diffs forced-backend deterministic
    documents) — and it deliberately does not contribute to :attr:`name` or
    the seed.

    ``faults`` names a :data:`~repro.spec.FAULT_PROFILES` entry; a fault cell
    is its own scenario (the profile suffixes :attr:`name`, so the cell gets
    its own name-derived seed and its own row) — fault tiers are additive and
    never perturb committed fault-free documents.
    """

    algorithm: str
    kind: str
    n: int
    workload: str
    collect_metrics: bool = True
    faults: Optional[str] = None
    node_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.faults is not None and self.faults not in FAULT_PROFILES:
            raise WorkloadError(
                f"unknown fault profile {self.faults!r}; "
                f"known: {sorted(FAULT_PROFILES)}"
            )

    @property
    def name(self) -> str:
        base = f"{self.algorithm}-{self.kind}-n{self.n}-{self.workload}"
        if self.faults is not None:
            return f"{base}+{self.faults}"
        return base

    @property
    def seed(self) -> int:
        return scenario_seed(self.name)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form, picklable across process start methods."""
        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "SweepScenario":
        return SweepScenario(**data)

    def experiment_spec(self) -> ExperimentSpec:
        """The cell as a canonical :class:`~repro.spec.ExperimentSpec`.

        The spec carries the name-derived seed explicitly, so a serialized
        cell replays identically on any machine — this is the cross-machine
        shard format (``repro sweep --export-specs`` / ``--from-specs``).
        """
        return ExperimentSpec(
            algorithm=self.algorithm,
            topology=TopologySpec(kind=self.kind, n=self.n),
            workload=sweep_workload_spec(self.workload, self.n),
            seed=self.seed,
            collect_metrics=self.collect_metrics,
            faults=FAULT_PROFILES[self.faults] if self.faults is not None else None,
            node_backend=self.node_backend,
        )

    @staticmethod
    def from_experiment_spec(spec: ExperimentSpec) -> "SweepScenario":
        """Reconstruct the sweep cell a (shipped) experiment spec describes.

        Guards the sweep's determinism anchor: the spec's explicit seed must
        equal the seed the scenario name derives, otherwise a hand-edited
        shard file would silently replay a different workload under the same
        row name.
        """
        faults = None
        if spec.faults is not None:
            # Reverse-map to the frozen profile table: sweep fault cells run
            # named profiles only, so an ad-hoc FaultSpec in a shard file is
            # rejected rather than run under a name that does not carry it.
            for profile_name, profile in FAULT_PROFILES.items():
                if spec.faults == profile:
                    faults = profile_name
                    break
            if faults is None:
                raise WorkloadError(
                    "spec carries a FaultSpec that matches no named fault "
                    f"profile; known profiles: {sorted(FAULT_PROFILES)}"
                )
        scenario = SweepScenario(
            algorithm=spec.algorithm,
            kind=spec.topology.kind,
            n=spec.topology.n,
            workload=spec.workload.tier,
            collect_metrics=spec.collect_metrics,
            faults=faults,
            node_backend=spec.node_backend,
        )
        if spec.seed != scenario.seed:
            raise WorkloadError(
                f"spec for {scenario.name!r} carries seed {spec.seed}, but the "
                f"sweep derives {scenario.seed} from the scenario name; "
                "refusing to replay a mislabelled workload"
            )
        # Full-spec comparison, not a field-by-field allowlist: any deviation
        # from the frozen cell definition (tier parameters, latency model,
        # topology seed/compact, record_trace) would run a configuration the
        # row name does not describe.
        if spec != scenario.experiment_spec():
            raise WorkloadError(
                f"spec for {scenario.name!r} does not match the sweep's frozen "
                "cell definition (tier parameters, latency, topology "
                "seed/compact and record_trace must be the matrix defaults)"
            )
        return scenario


def sweep_workload_spec(tier: str, n: int) -> WorkloadSpec:
    """The sweep's frozen tier parameterisation as a spec.

    Tier definitions are part of the sweep contract: changing them changes
    every committed sweep result, so extend with new tiers instead of
    editing existing ones.  Heavy demand is five materialised rounds below
    the streaming threshold and the bench-matching
    :data:`~repro.spec.XXLARGE_HEAVY_ROUNDS` streamed rounds above it.
    """
    if tier not in WORKLOAD_TIERS:
        raise WorkloadError(
            f"unknown sweep workload tier {tier!r}; known: {list(WORKLOAD_TIERS)}"
        )
    if tier == "heavy":
        if n >= STREAMING_NODE_THRESHOLD:
            return WorkloadSpec(
                tier="heavy", rounds=XXLARGE_HEAVY_ROUNDS, streaming=True
            )
        return WorkloadSpec(tier="heavy", rounds=5)
    return WorkloadSpec(tier=tier)


def build_sweep_workload(
    topology: Topology, tier: str, *, seed: int
) -> Workload:
    """Construct the workload for one tier on one topology (spec-delegated)."""
    return sweep_workload_spec(tier, len(topology.nodes)).build(topology, seed=seed)


def build_sweep_topology(kind: str, n: int) -> Topology:
    """The sweep shares the benchmark's (= the spec's) frozen topology families."""
    return TopologySpec(kind=kind, n=n).build()


#: Schema tag of a sweep spec-shard file: the cross-machine shard format
#: (a JSON list of canonical experiment specs).
SPEC_SHARD_SCHEMA = "sweep-specs/v1"


def write_spec_shard(matrix: Sequence[SweepScenario], path: str) -> None:
    """Write ``matrix`` as a spec-shard JSON file.

    The file is a list of canonical :class:`~repro.spec.ExperimentSpec`
    dictionaries — everything another machine needs to run this slice of the
    matrix and produce rows that merge byte-identically into the full sweep
    document (``repro sweep --from-specs`` + ``--merge``).
    """
    document = {
        "schema": SPEC_SHARD_SCHEMA,
        "scenarios": [scenario.experiment_spec().to_dict() for scenario in matrix],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_spec_shard(path: str) -> List[SweepScenario]:
    """Load a spec-shard file back into sweep scenarios (validated)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("schema") != SPEC_SHARD_SCHEMA:
        raise WorkloadError(
            f"{path}: not a sweep spec-shard file "
            f"(expected schema {SPEC_SHARD_SCHEMA!r})"
        )
    return [
        SweepScenario.from_experiment_spec(ExperimentSpec.from_dict(entry))
        for entry in document.get("scenarios", [])
    ]


#: Fault profiles every algorithm faces in the fault tier.  ``crash-recover``
#: is excluded here: token regeneration is defined only for the DAG protocol,
#: so it gets a single dedicated cell appended by :func:`fault_sweep_matrix`.
FAULT_TIER_PROFILES = (
    "drop1",
    "drop5",
    "lose-privilege",
    "lose-request",
    "crash-holder",
    "partition-heal",
)


def fault_sweep_matrix(
    *,
    algorithms: Optional[Sequence[str]] = None,
    node_backend: str = "auto",
) -> List[SweepScenario]:
    """The fault tier: every algorithm under the same injected fault load.

    One condition (star topology, n=50, heavy demand — the densest fault-free
    cell of the default matrix) crossed with the frozen fault profiles, so
    the merged document answers the robustness question directly: seeded
    random drops and targeted PRIVILEGE/REQUEST losses show token loss
    (DAG/Raymond/Suzuki-Kasami starve) against quorum starvation (the
    permission-based baselines stall or trip protocol errors), and the
    crash-holder profile kills whichever node holds the token/lock at t=25.
    The DAG algorithm additionally runs the ``crash-recover`` profile — the
    same kill followed by token regeneration — as the recovery contrast cell.
    """
    validate_algorithms(algorithms)
    names = tuple(algorithms) if algorithms is not None else SWEEP_ALGORITHMS
    matrix = [
        SweepScenario(
            algorithm,
            "star",
            50,
            "heavy",
            faults=profile,
            node_backend=node_backend,
        )
        for algorithm in names
        for profile in FAULT_TIER_PROFILES
    ]
    if "dag" in names:
        matrix.append(
            SweepScenario(
                "dag",
                "star",
                50,
                "heavy",
                faults="crash-recover",
                node_backend=node_backend,
            )
        )
    return matrix


def default_sweep_matrix(
    *,
    algorithms: Optional[Sequence[str]] = None,
    node_backend: str = "auto",
) -> List[SweepScenario]:
    """The full comparison matrix: 9 algorithms x 3 topologies x 2 sizes x 4 tiers."""
    validate_algorithms(algorithms)
    names = tuple(algorithms) if algorithms is not None else SWEEP_ALGORITHMS
    return [
        SweepScenario(algorithm, kind, n, tier, node_backend=node_backend)
        for algorithm in names
        for kind in _TOPOLOGY_KINDS
        for n in _SIZES
        for tier in _WORKLOAD_TIERS
    ]


def smoke_sweep_matrix(
    *,
    algorithms: Optional[Sequence[str]] = None,
    node_backend: str = "auto",
) -> List[SweepScenario]:
    """The CI gate: every algorithm, star topology, n=9, heavy + bursty."""
    validate_algorithms(algorithms)
    names = tuple(algorithms) if algorithms is not None else SWEEP_ALGORITHMS
    return [
        SweepScenario(algorithm, "star", 9, tier, node_backend=node_backend)
        for algorithm in names
        for tier in ("heavy", "bursty")
    ]


def large_sweep_matrix(
    *,
    algorithms: Optional[Sequence[str]] = None,
    node_backend: str = "auto",
) -> List[SweepScenario]:
    """The default matrix plus the 10k-node tier.

    Tier membership is the registry capability query: only the algorithms
    whose declared ``max_recommended_nodes`` admits 10k nodes join (the
    broadcast algorithms would send ~10^4 messages per entry there, which
    measures nothing the 50-node cells do not already show).  The 10k cells
    run on the unobserved fast path (``collect_metrics=False``).
    """
    matrix = default_sweep_matrix(
        algorithms=algorithms, node_backend=node_backend
    )
    allowed = set(algorithms) if algorithms is not None else None
    for algorithm in registry.names_for_scale(LARGE_TIER_NODES):
        if allowed is not None and algorithm not in allowed:
            continue
        for kind in ("star", "tree"):
            matrix.append(
                SweepScenario(
                    algorithm,
                    kind,
                    LARGE_TIER_NODES,
                    "heavy",
                    collect_metrics=False,
                    node_backend=node_backend,
                )
            )
    return matrix


def xlarge_sweep_matrix(
    *,
    algorithms: Optional[Sequence[str]] = None,
    node_backend: str = "auto",
) -> List[SweepScenario]:
    """The large matrix plus the 100k-node tier (scalable algorithms only).

    The tier the ROADMAP flagged as blocked on wall budget: one heavy
    100k-node cell is ~1M critical-section entries, minutes on the seed
    engine.  Star and tree only (a 100k-hop line diameter measures topology
    pathology, not the algorithms), heavy demand only, unobserved fast path.
    Additive like the 10k tier, so committed documents stay valid.
    """
    matrix = large_sweep_matrix(
        algorithms=algorithms, node_backend=node_backend
    )
    allowed = set(algorithms) if algorithms is not None else None
    for algorithm in registry.names_for_scale(XLARGE_TIER_NODES):
        if allowed is not None and algorithm not in allowed:
            continue
        for kind in ("star", "tree"):
            matrix.append(
                SweepScenario(
                    algorithm,
                    kind,
                    XLARGE_TIER_NODES,
                    "heavy",
                    collect_metrics=False,
                    node_backend=node_backend,
                )
            )
    return matrix


def xxlarge_sweep_matrix(
    *,
    algorithms: Optional[Sequence[str]] = None,
    node_backend: str = "auto",
) -> List[SweepScenario]:
    """The xlarge matrix plus the 1M-node tier (O(1)-state algorithms only).

    The tier the streaming pipeline unlocked: topologies come from the
    array-backed builders, the heavy workload streams in driver-chunked
    batches, and each cell runs on the unobserved fast path in its own child
    process (whose ``ru_maxrss`` is the tier's per-scenario RSS record).
    Star and tree only, heavy demand only, and only the algorithms whose
    declared ``max_recommended_nodes`` admits a million nodes (per the
    registry, the ones with O(1) per-node storage).  Additive, so committed
    documents stay valid.
    """
    matrix = xlarge_sweep_matrix(
        algorithms=algorithms, node_backend=node_backend
    )
    allowed = set(algorithms) if algorithms is not None else None
    for algorithm in registry.names_for_scale(XXLARGE_TIER_NODES):
        if allowed is not None and algorithm not in allowed:
            continue
        for kind in ("star", "tree"):
            matrix.append(
                SweepScenario(
                    algorithm,
                    kind,
                    XXLARGE_TIER_NODES,
                    "heavy",
                    collect_metrics=False,
                    node_backend=node_backend,
                )
            )
    return matrix
