"""Tests for the throughput benchmark harness (repro.bench)."""

from __future__ import annotations

import json

import pytest

from repro import benchdoc, cells
from repro import spec as spec_module
from repro.bench import (
    BASELINE_ALGORITHMS,
    baseline_matrix,
    bench_cell,
    bench_matrix,
    determinism_fingerprint,
    run_baseline_benchmark,
    run_benchmark,
    run_cell,
)
from repro.cells import tier_workload
from repro.spec import TopologySpec

from .conftest import forced_node_backend


def build_topology(kind, n):
    return TopologySpec(kind=kind, n=n).build()


def build_workload(topology, demand, *, seed=0):
    """The bench matrix's workload for ``demand`` on ``topology``."""
    spec = tier_workload(demand, len(topology.nodes), heavy_rounds=10)
    return spec.build(topology, seed=seed)


def kind(cell):
    return cell.experiment.topology.kind


def size(cell):
    return cell.experiment.topology.n


def demand(cell):
    return cell.experiment.workload.tier


def counts(row):
    return row["events"], row["messages"], row["entries"]


def test_matrix_shapes():
    full = bench_matrix()
    assert len(full) == 18
    assert {kind(cell) for cell in full} == {"line", "star", "tree"}
    assert any(size(cell) == 5000 for cell in full)
    smoke = bench_matrix("smoke")
    assert all(demand(cell) == "heavy" and size(cell) <= 1000 for cell in smoke)
    assert "star-n1000-heavy" in {spec.name for spec in bench_matrix()}


def test_large_matrix_extends_default_with_10k_tier():
    large = bench_matrix("large")
    base = bench_matrix()
    assert large[: len(base)] == base  # additive: committed names unchanged
    extra = large[len(base):]
    assert all(size(cell) == 10000 for cell in extra)
    assert {demand(cell) for cell in extra} == {"light", "heavy", "bursty"}


def test_bursty_demand_tier_is_deterministic():
    topology = build_topology("star", 20)
    first = build_workload(topology, "bursty")
    second = build_workload(topology, "bursty")
    assert [(r.node, r.arrival_time) for r in first] == [
        (r.node, r.arrival_time) for r in second
    ]
    assert len(first) == 40  # 2n requests, matching the light tier's volume


def test_baseline_matrix_covers_all_eight_baselines():
    assert len(BASELINE_ALGORITHMS) == 8
    assert "dag" not in BASELINE_ALGORITHMS
    full = baseline_matrix()
    assert len(full) == 8 * 2 * 2  # algorithms x sizes x demands
    assert {cell.experiment.algorithm for cell in full} == set(BASELINE_ALGORITHMS)
    assert {kind(cell) for cell in full} == {"star"}
    smoke = baseline_matrix("smoke")
    assert {cell.experiment.algorithm for cell in smoke} == set(BASELINE_ALGORITHMS)
    assert all(size(cell) == 100 and demand(cell) == "heavy" for cell in smoke)
    names = [spec.name for spec in full]
    assert len(set(names)) == len(names)


def test_run_baseline_scenario_measures_counts_and_bound():
    row = run_cell(bench_cell("star", 10, "heavy", algorithm="lamport"), repeat=1)
    assert row["scenario"] == "lamport-star-n10-heavy"
    assert row["algorithm"] == "lamport" and row["n"] == 10 and row["demand"] == "heavy"
    assert row["entries"] == 100  # 10 rounds x 10 nodes
    assert row["messages_per_entry"] == pytest.approx(27.0)  # 3 (N - 1)
    assert row["bound_messages_per_entry"] == 27.0
    assert row["within_bound"]
    assert row["events_per_sec"] > 0
    assert "node_backend" not in row and "kind" not in row


def test_baseline_runs_are_deterministic():
    cell = bench_cell("star", 10, "light", algorithm="suzuki-kasami")
    first = run_cell(cell, repeat=1)
    second = run_cell(cell, repeat=1)
    assert counts(first) == counts(second)


def test_baseline_benchmark_document_checks_like_the_dag_one():
    matrix = [bench_cell("star", 10, "heavy", algorithm="centralized")]
    document = run_baseline_benchmark(matrix=matrix, repeat=1)
    assert document["schema"] == "bench-baselines/v1"
    assert len(document["scenarios"]) == 1
    json.dumps(document)  # must be serialisable
    # The baselines gate is the throughput gate under the baselines schema.
    assert benchdoc.check(
        benchdoc.BASELINES, document["scenarios"], document, tolerance=0.0
    ) == ([], 1)
    drifted = [dict(document["scenarios"][0], events=1)]
    problems, _ = benchdoc.check(benchdoc.BASELINES, drifted, document, tolerance=0.0)
    assert any("deterministic" in problem for problem in problems)
    # ...and a DAG throughput document is not a baselines reference.
    problems, compared = benchdoc.check(
        benchdoc.THROUGHPUT, document["scenarios"], document, tolerance=0.0
    )
    assert compared == 0 and "schema" in problems[0]


def test_calibrated_baseline_benchmark_annotates_the_floor():
    matrix = [bench_cell("star", 10, "heavy", algorithm="centralized")]
    document = run_baseline_benchmark(matrix=matrix, repeat=1, calibrate=2)
    assert "minimum events/sec across 2 benchmark runs" in document["calibration"]
    assert len(document["scenarios"]) == 1
    with pytest.raises(ValueError):
        run_baseline_benchmark(matrix=matrix, repeat=1, calibrate=0)


def test_scenario_workloads_are_deterministic():
    topology = build_topology("star", 20)
    first = build_workload(topology, "light")
    second = build_workload(topology, "light")
    assert [(r.node, r.arrival_time) for r in first] == [
        (r.node, r.arrival_time) for r in second
    ]


def test_run_scenario_produces_counts_and_respects_bound():
    row = run_cell(bench_cell("star", 20, "heavy"), repeat=1)
    assert row["scenario"] == "star-n20-heavy"
    assert row["kind"] == "star" and row["n"] == 20 and row["demand"] == "heavy"
    assert row["entries"] == 200  # 10 rounds x 20 nodes
    assert row["events"] > 0
    assert row["events_per_sec"] > 0
    assert row["messages_per_entry"] <= row["bound_messages_per_entry"] + 1e-9
    assert "within_bound" not in row and "algorithm" not in row


def test_repeated_runs_have_identical_virtual_outcome():
    cell = bench_cell("line", 15, "heavy")
    assert counts(run_cell(cell, repeat=1)) == counts(run_cell(cell, repeat=1))


def test_determinism_fingerprint_is_stable():
    assert determinism_fingerprint() == determinism_fingerprint()


def test_fast_path_replays_observed_path():
    from repro.bench import fast_path_consistent

    assert fast_path_consistent() is True


def test_benchmark_document_structure(tmp_path):
    document = run_benchmark(matrix=[bench_cell("star", 10, "heavy")], repeat=1)
    assert document["schema"] == "bench-throughput/v1"
    assert len(document["scenarios"]) == 1
    assert document["determinism"] == {
        "fingerprint": determinism_fingerprint(),
        "fast_path_matches_observed": True,
    }
    json.dumps(document)  # must be serialisable


def test_tiny_scenarios_are_timed_over_a_replay_window(monkeypatch):
    from types import SimpleNamespace

    from repro.bench import throughput
    from repro.bench.throughput import (
        MIN_MEASUREMENT_WINDOW_SECONDS,
        measure_fastest,
    )
    from repro.baselines import registry

    # A fake clock, so the outcome does not depend on how busy the host is:
    # every reading is one tick (a power of two, so differences are exact)
    # after the last, and each replay measures one tick — under the window.
    tick = 1 / 128
    readings = iter(range(1_000_000))
    monkeypatch.setattr(
        throughput, "time", SimpleNamespace(perf_counter=lambda: next(readings) * tick)
    )

    topology = build_topology("star", 10)
    workload = build_workload(topology, "heavy")
    system_class = registry.get("centralized")
    calls = 0

    def factory():
        nonlocal calls
        calls += 1
        return system_class(topology, collect_metrics=False)

    wall, result, events, messages = measure_fastest(
        factory, workload, repeat=1
    )
    # A single replay of this cell takes well under the window, so the rate
    # must have been re-measured over several back-to-back replays.
    assert calls > 2
    assert 0 < wall < MIN_MEASUREMENT_WINDOW_SECONDS
    assert wall == tick
    assert events > 0 and messages > 0 and result.completed_entries == 100


def test_committed_bench_fingerprint_still_replays():
    """The fingerprint committed in BENCH_throughput.json must replay on the
    current engine: the fixed-seed 50-node runs produce exactly the metrics
    recorded there (`repro bench --check` gates the same comparison; a
    drifted copy is ``test_cli.py``'s)."""
    from pathlib import Path

    committed = benchdoc.load(
        str(Path(__file__).resolve().parents[1] / "BENCH_throughput.json")
    )
    assert determinism_fingerprint() == committed["determinism"]["fingerprint"]


def test_the_committed_determinism_keys_are_the_ones_run_benchmark_writes():
    """A key in the committed ``determinism`` section that no run writes is
    a claim nothing checks any more."""
    from pathlib import Path

    committed = benchdoc.load(
        str(Path(__file__).resolve().parents[1] / "BENCH_throughput.json")
    )
    fresh = run_benchmark(matrix=[bench_cell("star", 10, "heavy")], repeat=1)
    assert sorted(committed["determinism"]) == sorted(fresh["determinism"])


def test_xlarge_matrix_extends_large_with_100k_tier():
    large = bench_matrix("large")
    xlarge = bench_matrix("xlarge")
    assert xlarge[: len(large)] == large  # additive: committed names unchanged
    extra = xlarge[len(large):]
    assert [size(cell) for cell in extra] == [100000, 100000]
    assert {kind(cell) for cell in extra} == {"star", "tree"}
    assert all(demand(cell) == "heavy" for cell in extra)


def test_profiled_benchmark_embeds_hotspots(capsys):
    document = run_benchmark(
        matrix=[bench_cell("star", 20, "heavy")], repeat=1, profile=True
    )
    rows = document["profile"]
    assert 0 < len(rows) <= 20
    assert {"function", "ncalls", "tottime", "cumtime"} <= set(rows[0])
    # Sorted by cumulative time, and the dump went to stderr for humans.
    cumtimes = [row["cumtime"] for row in rows]
    assert cumtimes == sorted(cumtimes, reverse=True)
    assert "cumulative" in capsys.readouterr().err


def test_run_calibrated_benchmark_min_merges_the_dag_matrix():
    document = run_benchmark(
        matrix=[bench_cell("star", 20, "heavy")], repeat=1, calibrate=2
    )
    assert "calibration" in document
    assert len(document["scenarios"]) == 1
    assert document["determinism"]["fast_path_matches_observed"] is True


def test_xxlarge_matrix_extends_xlarge_with_1m_tier():
    xlarge = bench_matrix("xlarge")
    xxlarge = bench_matrix("xxlarge")
    assert xxlarge[: len(xlarge)] == xlarge  # additive: committed names unchanged
    extra = xxlarge[len(xlarge):]
    assert [size(cell) for cell in extra] == [1_000_000, 1_000_000]
    assert {kind(cell) for cell in extra} == {"star", "tree"}
    assert all(demand(cell) == "heavy" for cell in extra)
    assert "star-n1000000-heavy" in {spec.name for spec in extra}


def test_xxxlarge_matrix_extends_xxlarge_with_10m_tier():
    xxlarge = bench_matrix("xxlarge")
    xxxlarge = bench_matrix("xxxlarge")
    assert xxxlarge[: len(xxlarge)] == xxlarge  # additive: committed names unchanged
    extra = xxxlarge[len(xxlarge):]
    assert [size(cell) for cell in extra] == [10_000_000, 10_000_000]
    assert {kind(cell) for cell in extra} == {"star", "tree"}
    assert all(demand(cell) == "heavy" for cell in extra)


def test_run_scenario_records_engaged_node_backend():
    reference = run_cell(bench_cell("star", 20, "heavy"), repeat=1)
    assert reference["node_backend"] == "object"  # below the threshold
    with forced_node_backend("compact"):
        forced = run_cell(bench_cell("star", 20, "heavy"), repeat=1)
    assert forced["node_backend"] == "compact"
    # Forcing the backend never changes virtual-time outcomes.
    assert counts(forced) == counts(reference)


def test_setup_rows_record_engaged_node_backend():
    from repro.bench import run_setup_scenario

    row = run_setup_scenario(bench_cell("star", 50, "heavy"))
    assert row["node_backend"] == "object"
    with forced_node_backend("compact"):
        forced = run_setup_scenario(bench_cell("star", 50, "heavy"))
    assert forced["node_backend"] == "compact"


def test_the_setup_benchmark_loads_with_the_collector_paused(monkeypatch):
    """A replay loads its arrivals under ExperimentDriver.run's paused
    collector, so the row that prices the load must not time a collection
    pass inside it: no gc callback fires while ``_load_arrivals`` runs."""
    import gc

    from repro.bench import run_setup_scenario
    from repro.workload.driver import ExperimentDriver

    loading, passes, enabled = [], [], []
    real_load = ExperimentDriver._load_arrivals

    def load(driver, engine):
        enabled.append(gc.isenabled())
        loading.append(True)
        try:
            real_load(driver, engine)
        finally:
            loading.pop()

    def probe(phase, info):
        if phase == "start" and loading:
            passes.append(info["generation"])

    monkeypatch.setattr(ExperimentDriver, "_load_arrivals", load)
    gc.callbacks.append(probe)
    try:
        assert gc.isenabled()
        row = run_setup_scenario(bench_cell("star", 300, "heavy"))
    finally:
        gc.callbacks.remove(probe)
    assert row["loaded_arrivals"] == 3000
    assert enabled == [False] and passes == []
    assert gc.isenabled()  # and the pause ends with the load


def test_heavy_workloads_switch_their_rounds_at_the_node_threshold(monkeypatch):
    topology = build_topology("star", 40)
    # Below the threshold: the frozen definition, untouched.
    below = build_workload(topology, "heavy")
    assert len(below) == 400  # 10 rounds x n
    # At the threshold (lowered so the test doesn't build a 500k topology):
    # the xxlarge round count.
    monkeypatch.setattr(spec_module, "STREAMING_NODE_THRESHOLD", 40)
    at = build_workload(topology, "heavy")
    assert len(at) == cells.XXLARGE_HEAVY_ROUNDS * 40


def test_setup_benchmark_times_every_construction_phase():
    from repro.bench import construction_matrix, run_setup_benchmark

    large_cells = construction_matrix(bench_matrix("xxlarge"))
    assert [size(cell) for cell in large_cells] == [100000, 100000, 1_000_000, 1_000_000]
    assert construction_matrix(bench_matrix("large")) == []

    # A small stand-in matrix keeps the test fast; phases and document
    # structure are what is under test, not 1M-node wall time.
    document = run_setup_benchmark(
        [bench_cell("star", 50, "heavy")], budget_seconds=60.0
    )
    assert document["schema"] == "bench-setup/v1"
    assert document["within_budget"] is True
    (row,) = document["scenarios"]
    assert row["scenario"] == "star-n50-heavy"
    assert row["loaded_arrivals"] == row["total_requests"] == 500
    for key in (
        "topology_seconds",
        "workload_seconds",
        "system_seconds",
        "load_seconds",
        "setup_seconds",
        "peak_rss_kb",
    ):
        assert row[key] >= 0

    busted = run_setup_benchmark(
        [bench_cell("star", 50, "heavy")], budget_seconds=0.0
    )
    assert busted["within_budget"] is False
    assert busted["over_budget"]


def test_setup_benchmark_builds_one_chunk_and_no_request(monkeypatch):
    from repro.bench import run_setup_scenario
    from repro.sim.schedulers import BULK_CHUNK
    from repro.workload import CSRequest

    # A heavy cell at the round-count threshold, as at the 1M tier, with
    # more arrivals than the engine's first chunk of entries.
    n = 3000
    monkeypatch.setattr(spec_module, "STREAMING_NODE_THRESHOLD", n)
    built = []
    real_init = CSRequest.__init__

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    monkeypatch.setattr(CSRequest, "__init__", counting_init)
    row = run_setup_scenario(bench_cell("star", n, "heavy"))
    assert row["total_requests"] == cells.XXLARGE_HEAVY_ROUNDS * n > BULK_CHUNK
    # Every arrival is scheduled from the schedule's columns; no request
    # object is built to do it.
    assert row["loaded_arrivals"] == row["total_requests"]
    assert built == []
