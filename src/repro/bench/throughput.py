"""End-to-end throughput benchmark for the simulation hot path.

The events-per-second number measured here gates everything the evaluation
produces: every paper metric comes out of replaying workloads through
``SimulationEngine`` → ``Network`` → node callbacks.  The benchmark drives a
standard scenario matrix (topology family × node count × demand level,
:func:`repro.cells.bench_matrix`) with no metrics collector attached, exactly
how large-scale sweeps run, and records:

* events/sec, messages/sec, wall time and process peak RSS per scenario;
* a correctness assertion that the DAG algorithm stays within the paper's
  worst-case message bound (``D + 1`` messages per entry, Section 6.1);
* a determinism fingerprint — a fixed-seed 50-node run whose entry order,
  message counts and finish time must be byte-identical to the ones the
  committed ``BENCH_throughput.json`` records (``repro bench --check``).

Scenario definitions are frozen: changing them silently would invalidate the
committed rows of ``BENCH_throughput.json``.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import benchdoc
from repro.analysis.theory import upper_bound_messages
from repro.baselines import build_grid_quorums
from repro.cells import Cell, bench_matrix
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.rng import SeededRNG
from repro.topology import star
from repro.topology.base import Topology
from repro.topology.metrics import diameter
from repro.workload.driver import ExperimentDriver, run_experiment
from repro.workload.generator import WorkloadGenerator

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


def message_bound(algorithm: str, topology: Topology) -> float:
    """The paper's worst-case messages per entry for ``algorithm`` (Section 6.1)."""
    if algorithm == "maekawa":
        # The paper's 7·sqrt(N) assumes projective-plane committees of size
        # sqrt(N); this reproduction substitutes grid quorums (size about
        # 2·sqrt(N) - 1, see repro.baselines.maekawa), so the honest bound
        # uses the actual committee size.  Exposed by this very benchmark:
        # at N=100 the measured heavy-demand average (71.9) exceeds the
        # idealized 7·sqrt(N) = 70 while respecting the grid-quorum bound.
        largest = max(
            len(members) for members in build_grid_quorums(topology.nodes).values()
        )
        return 7.0 * (largest - 1)
    return float(
        upper_bound_messages(algorithm, n=topology.size, diameter=diameter(topology))
    )


def run_cell(cell: Cell, *, repeat: int = 3) -> Dict[str, Any]:
    """Run one cell best-of-``repeat`` (see :func:`measure_fastest`); its row.

    The system is rebuilt per repetition (identical virtual outcome every
    time) and runs with no metrics collector, so the network's observer
    branch is never taken.  A DAG cell that exceeds the paper's ``D + 1`` bound
    raises; a baseline cell records ``within_bound`` instead (its bound is
    per entry, the measurement an average).
    """
    experiment = cell.experiment
    algorithm = experiment.algorithm
    # Topology and workload are built once and shared across repetitions;
    # only the system under test is rebuilt per replay.
    topology = experiment.topology.build()
    workload = experiment.workload.build(topology, seed=experiment.seed)
    bound = message_bound(algorithm, topology)
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
    within_bound = result.messages_per_entry <= bound + 1e-9
    row: Dict[str, Any] = {
        "scenario": cell.name,
        "n": experiment.topology.n,
        "demand": experiment.workload.tier,
        "events": events,
        "messages": messages,
        "entries": result.completed_entries,
        "wall_seconds": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
        "messages_per_sec": round(messages / wall, 1),
        "messages_per_entry": round(result.messages_per_entry, 4),
        "bound_messages_per_entry": round(bound, 4),
        # Process-lifetime peak RSS sampled after this cell (a running
        # maximum across the benchmark run, not a per-cell measurement; use
        # ``repro sweep`` for true per-scenario child-process numbers).
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if algorithm == "dag":
        if not within_bound:
            raise AssertionError(
                f"{cell.name}: {result.messages_per_entry:.3f} messages/entry "
                f"exceeds the paper's D+1 bound of {bound:.0f}"
            )
        row["kind"] = experiment.topology.kind
        row["node_backend"] = engaged_backend
    else:
        row["algorithm"] = algorithm
        row["within_bound"] = within_bound
    return row


def determinism_fingerprint() -> Dict[str, Dict[str, Any]]:
    """Fixed-seed 50-node runs whose metrics must replay byte-identically.

    Two latency models are exercised, both with the metrics collector
    attached: constant latency and seeded uniform-random latency (the
    per-channel FIFO clamp).  ``repro bench --check`` compares the returned
    structure with the committed document's; :func:`fast_path_consistent`
    separately pins the metrics-free run to the same replay.
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
    """Whether a run without a metrics collector replays one with it exactly.

    The fingerprint is produced with a metrics collector attached.  This is
    the metrics-on-vs-off reference check: the same fixed-seed run driven
    with ``collect_metrics=False`` — the same one message path with its
    observer branch not taken — must yield the identical entry order,
    message count and finish time, which pins the unobserved run to the
    committed fingerprint transitively.
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


def run_passes(
    gate: benchdoc.GateSpec,
    one_run,
    *,
    calibrate: Optional[int],
    repeat: int,
    verbose: bool = False,
) -> Dict[str, Any]:
    """One pass of a matrix (``one_run(0)``), or ``calibrate`` min-merged passes.

    A calibrated document says so in its ``calibration`` field.
    """
    if calibrate is None:
        return one_run(0)
    document = benchdoc.calibrate(gate, one_run, calibrate, verbose=verbose)
    document["calibration"] = (
        f"per-scenario minimum events/sec across {calibrate} benchmark runs "
        f"(repeat={repeat} each), making the committed rates a conservative "
        "floor for the regression gate"
    )
    return document


def run_benchmark(
    *,
    matrix: Optional[Sequence[Cell]] = None,
    repeat: int = 3,
    calibrate: Optional[int] = None,
    profile: bool = False,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the matrix and assemble the ``BENCH_throughput.json`` document.

    ``calibrate=N`` is how the committed document is (re)produced (``repro
    bench --calibrate N``): the matrix runs N times and
    :func:`repro.benchdoc.calibrate` keeps each scenario's minimum observed
    rate.  The determinism section comes from the first run (the fingerprint
    and equivalence replays are rate-independent, so they run once, not once
    per calibration pass).

    With ``profile=True`` the measured loop runs under :mod:`cProfile`; the
    top-20 cumulative-time rows go to stderr and into the document's
    ``"profile"`` key so perf work can cite hotspots instead of guessing.
    Rates measured under the profiler are distorted — don't commit or
    ``--check`` a profiled document.
    """
    cells = list(matrix) if matrix is not None else bench_matrix()

    def one_run(index: int) -> Dict[str, Any]:
        scenarios: List[Dict[str, Any]] = []
        profiler = None
        if profile:
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        for cell in cells:
            row = run_cell(cell, repeat=repeat)
            scenarios.append(row)
            if verbose:
                print(
                    f"{row['scenario']:<22} {row['events_per_sec']:>12,.0f} ev/s  "
                    f"{row['messages_per_sec']:>12,.0f} msg/s  "
                    f"wall {row['wall_seconds']:.3f}s  "
                    f"[{row['node_backend']}]"
                )
        document: Dict[str, Any] = {
            "schema": benchdoc.THROUGHPUT.schema,
            "generated_by": "repro bench",
            "repeat": repeat,
            "scenarios": scenarios,
        }
        if profiler is not None:
            profiler.disable()
            document["profile"] = _profile_rows(profiler, top=20)
        if index == 0:
            document["determinism"] = {
                "fingerprint": determinism_fingerprint(),
                "fast_path_matches_observed": fast_path_consistent(),
            }
        return document

    return run_passes(
        benchdoc.THROUGHPUT, one_run, calibrate=calibrate, repeat=repeat, verbose=verbose
    )


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

