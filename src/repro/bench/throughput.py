"""End-to-end throughput benchmark for the simulation hot path.

The events-per-second number measured here gates everything the evaluation
produces: every paper metric comes out of replaying workloads through
``SimulationEngine`` → ``Network`` → node callbacks.  The benchmark drives a
standard scenario matrix (topology family × node count × demand level)
through the *unobserved* fast path (no metrics collector attached), exactly
how large-scale sweeps run, and records:

* events/sec, messages/sec, wall time and process peak RSS per scenario;
* a correctness assertion that the DAG algorithm stays within the paper's
  worst-case message bound (``D + 1`` messages per entry, Section 6.1);
* a determinism fingerprint — a fixed-seed 50-node run whose entry order,
  message counts and finish time must be byte-identical to the values
  recorded from the seed (pre-optimization) engine;
* the recorded seed baseline, so the speedup and later regressions are
  computed against a committed reference.

Scenario definitions are frozen: changing them silently would invalidate the
committed baseline in ``benchmarks/seed_baseline.json``.
"""

from __future__ import annotations

import copy
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.rng import SeededRNG
from repro.spec import (
    STREAMING_NODE_THRESHOLD,
    XXLARGE_HEAVY_ROUNDS,
    ExperimentSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.topology import star
from repro.topology.base import Topology
from repro.topology.metrics import diameter
from repro.workload.driver import ExperimentDriver, run_experiment
from repro.workload.generator import WorkloadGenerator
from repro.workload.requests import Workload

#: The scenario the acceptance criterion (>= 3x over seed) is judged on.
ACCEPTANCE_SCENARIO = "star-n1000-heavy"

_TOPOLOGY_KINDS = ("line", "star", "tree")
_SIZES = (100, 1000, 5000)
_DEMANDS = ("light", "heavy")


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the benchmark matrix (the DAG algorithm throughout)."""

    kind: str
    n: int
    demand: str

    @property
    def name(self) -> str:
        return f"{self.kind}-n{self.n}-{self.demand}"

    def experiment_spec(self, *, node_backend: str = "auto") -> ExperimentSpec:
        """The cell as a canonical :class:`~repro.spec.ExperimentSpec`.

        Benchmark cells run the DAG algorithm on the unobserved fast path
        with seed 0 — exactly the recorded-seed-baseline configuration.
        ``node_backend`` picks object nodes vs the columnar array core
        ("auto" switches to the columns at
        :data:`~repro.core.compact_state.COMPACT_NODE_BACKEND_THRESHOLD`
        nodes); the virtual-time outcome is identical either way, so the
        committed per-scenario counts stay valid across backends.
        """
        return ExperimentSpec(
            algorithm="dag",
            topology=TopologySpec(kind=self.kind, n=self.n),
            workload=bench_workload_spec(self.demand, self.n),
            seed=0,
            collect_metrics=False,
            node_backend=node_backend,
        )


@dataclass
class ScenarioResult:
    """Measured outcome of one scenario run."""

    scenario: str
    kind: str
    n: int
    demand: str
    events: int
    messages: int
    entries: int
    wall_seconds: float
    events_per_sec: float
    messages_per_sec: float
    messages_per_entry: float
    bound_messages_per_entry: float
    #: Process-lifetime peak RSS sampled after this scenario (a running
    #: maximum across the benchmark run, not a per-scenario measurement).
    peak_rss_kb: int
    #: The node backend the run engaged ("object" or "compact").
    node_backend: str = "object"

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def default_matrix() -> List[ScenarioSpec]:
    """The full committed matrix: 3 topologies x 3 sizes x 2 demand levels."""
    return [
        ScenarioSpec(kind, n, demand)
        for kind in _TOPOLOGY_KINDS
        for n in _SIZES
        for demand in _DEMANDS
    ]


def smoke_matrix() -> List[ScenarioSpec]:
    """A ~30-second subset for CI: every topology, heavy demand, n <= 1000."""
    return [
        ScenarioSpec(kind, n, "heavy") for kind in _TOPOLOGY_KINDS for n in (100, 1000)
    ]


def large_matrix() -> List[ScenarioSpec]:
    """The default matrix plus the 10k-node tier (including bursty demand).

    The 10k scenarios are additive: regression checks compare by scenario
    name, so documents committed before this tier existed stay valid.  At
    ~1M ev/s the heaviest cell (``line-n10000-light``, whose isolated
    requests each cross the 10k-hop diameter) runs in single-digit seconds.
    """
    matrix = default_matrix()
    matrix.extend(
        ScenarioSpec(kind, 10000, demand)
        for kind in _TOPOLOGY_KINDS
        for demand in ("light", "heavy", "bursty")
    )
    return matrix


def xlarge_matrix() -> List[ScenarioSpec]:
    """The large matrix plus the 100k-node tier (heavy demand only).

    100k nodes is the tier the ROADMAP flagged as blocked on per-scenario
    wall budget: a heavy run is ~5M events (1M requests), minutes on the
    seed engine and seconds now.  Star and tree only — a 100k-hop line
    diameter measures topology pathology, not engine throughput — and like
    the 10k tier the names are additive, so older committed documents stay
    valid.
    """
    matrix = large_matrix()
    matrix.extend(ScenarioSpec(kind, 100000, "heavy") for kind in ("star", "tree"))
    return matrix


def xxlarge_matrix() -> List[ScenarioSpec]:
    """The xlarge matrix plus the 1M-node tier (heavy demand, star/tree).

    The tier the ROADMAP flagged as blocked on *setup*, not the event loop:
    at a million nodes the old construction pipeline spent ~6 s and ~500 MB
    on the topology alone and would have needed gigabytes for a materialised
    heavy schedule.  These cells run on the array-backed (CSR) topologies
    and the streamed workload pipeline (:data:`STREAMING_NODE_THRESHOLD`),
    so the whole replay fits in bounded RSS.  Names are additive like every
    tier before, so committed documents stay valid.
    """
    matrix = xlarge_matrix()
    matrix.extend(ScenarioSpec(kind, 1_000_000, "heavy") for kind in ("star", "tree"))
    return matrix


def xxxlarge_matrix() -> List[ScenarioSpec]:
    """The xxlarge matrix plus the 10M-node tier (heavy demand, star/tree).

    The ten-million-node tier exists for *construction*, not replay: CI
    stands these cells up with ``repro bench --setup-only --xxxlarge`` (the
    columnar node backend builds the whole population as flat array columns
    in well under a second and a few hundred megabytes) but draining ~100M
    protocol events is a local, not a CI, exercise.  The tree cell rounds up
    to the next full balanced binary tree (2^24 - 1 ~ 16.8M nodes), like
    every tree cell before it rounds to its own power of two.  Names are
    additive, so committed documents stay valid.
    """
    matrix = xxlarge_matrix()
    matrix.extend(ScenarioSpec(kind, 10_000_000, "heavy") for kind in ("star", "tree"))
    return matrix


#: Demand levels of the DAG benchmark matrix (a subset of the spec tiers).
_BENCH_DEMANDS = ("light", "heavy", "bursty")


def bench_workload_spec(demand: str, n: int) -> WorkloadSpec:
    """The benchmark matrix's frozen tier parameterisation as a spec.

    Heavy demand is ten materialised rounds below the streaming threshold
    and :data:`~repro.spec.XXLARGE_HEAVY_ROUNDS` streamed rounds above it —
    spelled out explicitly here so a cell's spec JSON says what actually
    runs (matching the recorded seed baseline byte for byte).
    """
    if demand not in _BENCH_DEMANDS:
        raise ValueError(f"unknown demand level {demand!r}")
    if demand == "heavy":
        if n >= STREAMING_NODE_THRESHOLD:
            return WorkloadSpec(
                tier="heavy", rounds=XXLARGE_HEAVY_ROUNDS, streaming=True
            )
        return WorkloadSpec(tier="heavy", rounds=10)
    return WorkloadSpec(tier=demand)


def build_topology(kind: str, n: int) -> Topology:
    """Frozen scenario topologies (matches the recorded seed baseline)."""
    if kind not in ("line", "star", "tree"):
        raise ValueError(f"unknown benchmark topology kind {kind!r}")
    return TopologySpec(kind=kind, n=n).build()


def build_workload(topology: Topology, demand: str, *, seed: int = 0) -> Workload:
    """Frozen scenario workloads (matches the recorded seed baseline)."""
    return bench_workload_spec(demand, len(topology.nodes)).build(topology, seed=seed)


#: Minimum timing window for a trustworthy events/sec figure.  A scenario
#: whose single replay finishes faster than this is re-measured over enough
#: back-to-back replays to fill the window (scheduler noise on a
#: few-millisecond run can exceed the regression gate's entire tolerance).
MIN_MEASUREMENT_WINDOW_SECONDS = 0.05


def measure_fastest(system_factory, workload, *, repeat: int = 3):
    """Replay ``workload`` against fresh systems ``repeat`` times; keep the fastest.

    Each repetition rebuilds the whole system, so the virtual-time outcome is
    identical every time — only the wall clock varies, and best-of-N damps
    scheduler noise.  Shared by the DAG and baseline benchmark matrices.

    If the fastest repetition is shorter than
    :data:`MIN_MEASUREMENT_WINDOW_SECONDS`, the scenario is re-timed over
    enough back-to-back replays to fill the window and the returned wall is
    the per-replay average — the rate stays comparable to a single-run
    measurement while the noise drops with the window length.  This is what
    lets the regression gate apply its rate tolerance to *every* scenario,
    including the ones that finish in a couple of milliseconds.

    Returns:
        ``(wall_seconds, experiment_result, events, messages)``
        of the fastest repetition (``wall_seconds`` is a per-replay average
        when the window re-measurement kicked in).
    """
    best = None
    for _ in range(max(1, repeat)):
        system = system_factory()
        driver = ExperimentDriver(system, workload)
        start = time.perf_counter()
        result = driver.run(max_events=50_000_000)
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (
                wall,
                result,
                system.engine.processed_events,
                system.network.messages_sent,
            )
    wall, result, events, messages = best
    if wall < MIN_MEASUREMENT_WINDOW_SECONDS:
        replays = min(
            200, max(2, int(MIN_MEASUREMENT_WINDOW_SECONDS / max(wall, 1e-5)) + 1)
        )
        # Time only the run, like the single-replay path above: construction
        # stays outside the clock so both paths measure the same quantity.
        window = 0.0
        for _ in range(replays):
            system = system_factory()
            driver = ExperimentDriver(system, workload)
            start = time.perf_counter()
            driver.run(max_events=50_000_000)
            window += time.perf_counter() - start
        wall = window / replays
    return wall, result, events, messages


def run_scenario(
    spec: ScenarioSpec,
    *,
    repeat: int = 3,
    node_backend: str = "auto",
) -> ScenarioResult:
    """Run one scenario best-of-``repeat`` (see :func:`measure_fastest`)."""
    experiment = spec.experiment_spec(node_backend=node_backend)
    # Topology and workload are built once and shared across repetitions;
    # only the system under test is rebuilt per replay.
    topology = experiment.topology.build()
    workload = experiment.workload.build(topology, seed=experiment.seed)
    bound = float(diameter(topology) + 1)
    engaged_backend = "object"

    def system_factory():
        nonlocal engaged_backend
        system = experiment.build_system(topology)
        engaged_backend = system.node_backend
        return system

    wall, result, events, messages = measure_fastest(
        system_factory,
        workload,
        repeat=repeat,
    )
    if result.messages_per_entry > bound + 1e-9:
        raise AssertionError(
            f"{spec.name}: {result.messages_per_entry:.3f} messages/entry exceeds "
            f"the paper's D+1 bound of {bound:.0f}"
        )
    return ScenarioResult(
        scenario=spec.name,
        kind=spec.kind,
        n=spec.n,
        demand=spec.demand,
        events=events,
        messages=messages,
        entries=result.completed_entries,
        wall_seconds=round(wall, 4),
        events_per_sec=round(events / wall, 1),
        messages_per_sec=round(messages / wall, 1),
        messages_per_entry=round(result.messages_per_entry, 4),
        bound_messages_per_entry=bound,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        node_backend=engaged_backend,
    )


def determinism_fingerprint() -> Dict[str, Dict[str, Any]]:
    """Fixed-seed 50-node runs whose metrics must replay byte-identically.

    Two latency models are exercised, both on the observed (metrics-attached)
    network path the seed recording used: constant latency and seeded
    uniform-random latency (the per-channel FIFO clamp).  The returned
    structure is compared against the values recorded from the seed engine;
    :func:`fast_path_consistent` separately pins the unobserved fast path to
    the same replay.
    """
    topology = star(50)
    workload = WorkloadGenerator(topology.nodes, seed=42).poisson(
        total_requests=200, mean_interarrival=2.0
    )
    out: Dict[str, Dict[str, Any]] = {}
    for label, latency in (
        ("constant", ConstantLatency(1.0)),
        (
            "uniform",
            UniformLatency(0.1, 2.0, rng=SeededRNG(7, label="bench-latency")),
        ),
    ):
        result = run_experiment("dag", topology, workload, latency=latency)
        out[label] = {
            "entry_order": result.entry_order,
            "total_messages": result.total_messages,
            "messages_by_type": result.messages_by_type,
            "finished_at": round(result.finished_at, 9),
            "mean_waiting_time": round(result.mean_waiting_time, 9),
        }
    return out


def fast_path_consistent() -> bool:
    """Whether the unobserved fast path replays the observed path exactly.

    The recorded seed fingerprint is produced with a metrics collector
    attached (the observed path).  This check closes the remaining gap: the
    same fixed-seed run driven with ``collect_metrics=False`` — lite events,
    ``_deliver_fast``, no ``MessageDelivery`` — must yield the identical
    entry order, message count and finish time.  Together with the seed
    fingerprint this pins the fast path to the seed engine transitively.
    """
    topology = star(50)
    workload = WorkloadGenerator(topology.nodes, seed=42).poisson(
        total_requests=200, mean_interarrival=2.0
    )
    for latency_factory in (
        lambda: ConstantLatency(1.0),
        lambda: UniformLatency(0.1, 2.0, rng=SeededRNG(7, label="bench-latency")),
    ):
        observed = run_experiment("dag", topology, workload, latency=latency_factory())
        fast = run_experiment(
            "dag", topology, workload, latency=latency_factory(), collect_metrics=False
        )
        if (
            fast.entry_order != observed.entry_order
            or fast.total_messages != observed.total_messages
            or round(fast.finished_at, 9) != round(observed.finished_at, 9)
        ):
            return False
    return True


def run_benchmark(
    *,
    matrix: Optional[Sequence[ScenarioSpec]] = None,
    repeat: int = 3,
    seed_baseline: Optional[Dict[str, Any]] = None,
    node_backend: str = "auto",
    profile: bool = False,
    verify_determinism: bool = True,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the matrix and assemble the ``BENCH_throughput.json`` document.

    With ``profile=True`` the measured loop runs under :mod:`cProfile`; the
    top-20 cumulative-time rows go to stderr and into the document's
    ``"profile"`` key so perf work can cite hotspots instead of guessing.
    Rates measured under the profiler are distorted — don't commit or
    ``--check`` a profiled document.  ``verify_determinism=False`` skips the
    rate-independent fingerprint/equivalence replays (the calibration loop
    runs them on its first pass only — they cannot change between passes).
    """
    specs = list(matrix) if matrix is not None else default_matrix()
    scenarios: List[Dict[str, Any]] = []
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    for spec in specs:
        measured = run_scenario(spec, repeat=repeat, node_backend=node_backend)
        scenarios.append(measured.as_dict())
        if verbose:
            print(
                f"{measured.scenario:<22} {measured.events_per_sec:>12,.0f} ev/s  "
                f"{measured.messages_per_sec:>12,.0f} msg/s  "
                f"wall {measured.wall_seconds:.3f}s  "
                f"[{measured.node_backend}]"
            )
    if profiler is not None:
        profiler.disable()

    document: Dict[str, Any] = {
        "schema": "bench-throughput/v1",
        "generated_by": "repro bench",
        "repeat": repeat,
        "scenarios": scenarios,
    }
    if profiler is not None:
        document["profile"] = _profile_rows(profiler, top=20)

    if verify_determinism:
        fingerprint = determinism_fingerprint()
        document["determinism"] = {
            "fingerprint": fingerprint,
            "fast_path_matches_observed": fast_path_consistent(),
        }

    if seed_baseline is not None:
        document["seed_baseline"] = seed_baseline
        acceptance = _acceptance_summary(scenarios, seed_baseline)
        if acceptance is not None:
            document["acceptance"] = acceptance
        if verify_determinism:
            recorded = seed_baseline.get("fingerprint")
            document["determinism"]["matches_seed"] = recorded == fingerprint
            counts = _counts_match(scenarios, seed_baseline)
            document["determinism"]["scenario_counts_match_seed"] = counts
    return document


def _profile_rows(profiler, *, top: int = 20) -> List[Dict[str, Any]]:
    """Top-N cumulative rows of a cProfile run, also dumped to stderr."""
    import pstats

    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative")
    print(f"profile: top {top} functions by cumulative time", file=sys.stderr)
    stats.print_stats(top)
    rows: List[Dict[str, Any]] = []
    for (filename, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    rows.sort(key=lambda row: -row["cumtime"])
    return rows[:top]


def min_merge_documents(documents: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge benchmark documents into a per-scenario-minimum-rate floor.

    Virtual-time counts (``events``/``messages``/``entries``) must agree
    across the documents (they are deterministic; disagreement means the
    simulation drifted between runs and the merge raises).  Wall-clock fields
    take the slowest run's values, so the merged rates are a conservative
    floor for the regression gate's tolerance check.  Works for both the DAG
    and the baseline documents (their rows share the rate fields).
    """
    if not documents:
        raise ValueError("min_merge_documents needs at least one document")
    merged = copy.deepcopy(documents[0])
    for document in documents[1:]:
        if len(document["scenarios"]) != len(merged["scenarios"]):
            raise ValueError("documents cover different scenario matrices")
        for row, other in zip(merged["scenarios"], document["scenarios"]):
            if row["scenario"] != other["scenario"]:
                raise ValueError(
                    f"scenario order mismatch: {row['scenario']!r} vs "
                    f"{other['scenario']!r}"
                )
            for field in ("events", "messages", "entries"):
                if row[field] != other[field]:
                    raise ValueError(
                        f"{row['scenario']}: {field} {row[field]} != "
                        f"{other[field]} (simulation no longer deterministic?)"
                    )
            if other["events_per_sec"] < row["events_per_sec"]:
                for field in (
                    "events_per_sec",
                    "messages_per_sec",
                    "wall_seconds",
                    "peak_rss_kb",
                ):
                    row[field] = other[field]
    return merged


def run_calibrated_benchmark(
    *,
    matrix: Optional[Sequence[ScenarioSpec]] = None,
    repeat: int = 3,
    runs: int = 4,
    seed_baseline: Optional[Dict[str, Any]] = None,
    node_backend: str = "auto",
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the DAG matrix ``runs`` times and min-merge into a committed floor.

    This is how ``BENCH_throughput.json`` is (re)produced (``repro bench
    --calibrate N``): single-run rates on a busy machine are too noisy to
    gate against, so the committed reference records each scenario's minimum
    observed rate.  The acceptance section is recomputed from the merged
    rates; the determinism sections come from the first run (they are
    rate-independent).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    documents = []
    for index in range(runs):
        if verbose:
            print(f"calibration run {index + 1}/{runs}:")
        documents.append(
            run_benchmark(
                matrix=matrix,
                repeat=repeat,
                seed_baseline=seed_baseline,
                node_backend=node_backend,
                # The fingerprint/equivalence replays are rate-independent:
                # run them once, not once per calibration pass.
                verify_determinism=index == 0,
                verbose=verbose,
            )
        )
    merged = min_merge_documents(documents)
    if seed_baseline is not None:
        acceptance = _acceptance_summary(merged["scenarios"], seed_baseline)
        if acceptance is not None:
            merged["acceptance"] = acceptance
    merged["calibration"] = (
        f"per-scenario minimum events/sec across {runs} benchmark runs "
        f"(repeat={repeat} each), making the committed rates a conservative "
        "floor for the regression gate"
    )
    return merged


def check_against_baseline(
    current: Iterable[Dict[str, Any]],
    committed: Dict[str, Any],
    *,
    tolerance: float = 0.2,
) -> List[str]:
    """Compare fresh scenario measurements against a committed document.

    Returns a list of human-readable regression descriptions; empty means the
    run is within ``tolerance`` (relative events/sec drop) everywhere.  Every
    scenario is rate-gated: millisecond-scale cells are trustworthy because
    :func:`measure_fastest` re-times them over a
    :data:`MIN_MEASUREMENT_WINDOW_SECONDS` replay window.
    """
    committed_by_name = {
        row["scenario"]: row for row in committed.get("scenarios", [])
    }
    problems: List[str] = []
    for row in current:
        reference = committed_by_name.get(row["scenario"])
        if reference is None:
            continue
        floor = reference["events_per_sec"] * (1.0 - tolerance)
        if row["events_per_sec"] < floor:
            problems.append(
                f"{row['scenario']}: {row['events_per_sec']:,.0f} ev/s is below "
                f"{floor:,.0f} (committed {reference['events_per_sec']:,.0f} "
                f"- {tolerance:.0%} tolerance)"
            )
        for field in ("events", "messages", "entries"):
            if row[field] != reference[field]:
                problems.append(
                    f"{row['scenario']}: {field} {row[field]} != committed "
                    f"{reference[field]} (simulation no longer deterministic?)"
                )
    return problems


def load_json(path: str) -> Dict[str, Any]:
    """Small helper so CLI and CI share one loader."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _acceptance_summary(
    scenarios: List[Dict[str, Any]], seed_baseline: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    current = next(
        (row for row in scenarios if row["scenario"] == ACCEPTANCE_SCENARIO), None
    )
    seed_row = next(
        (
            row
            for row in seed_baseline.get("throughput", [])
            if row["scenario"] == ACCEPTANCE_SCENARIO
        ),
        None,
    )
    if current is None or seed_row is None:
        return None
    seed_rate = seed_baseline.get("acceptance_events_per_sec", seed_row["events_per_sec"])
    speedup = current["events_per_sec"] / seed_rate
    return {
        "scenario": ACCEPTANCE_SCENARIO,
        "seed_events_per_sec": seed_rate,
        "events_per_sec": current["events_per_sec"],
        "speedup": round(speedup, 2),
        "target_speedup": 3.0,
        "meets_target": speedup >= 3.0,
    }


def _counts_match(
    scenarios: List[Dict[str, Any]], seed_baseline: Dict[str, Any]
) -> bool:
    seed_rows = {
        row["scenario"]: row for row in seed_baseline.get("throughput", [])
    }
    for row in scenarios:
        reference = seed_rows.get(row["scenario"])
        if reference is None:
            continue
        if (
            row["events"] != reference["events"]
            or row["messages"] != reference["messages"]
            or row["entries"] != reference["entries"]
        ):
            return False
    return True
