"""Tests for the throughput benchmark harness (repro.bench)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    ACCEPTANCE_SCENARIO,
    run_calibrated_benchmark,
    BASELINE_ALGORITHMS,
    BaselineScenarioSpec,
    ScenarioSpec,
    baseline_default_matrix,
    baseline_smoke_matrix,
    check_against_baseline,
    default_matrix,
    determinism_fingerprint,
    large_matrix,
    run_baseline_benchmark,
    run_baseline_scenario,
    run_benchmark,
    run_scenario,
    smoke_matrix,
)
from repro.bench.throughput import build_topology, build_workload


def test_matrix_shapes():
    full = default_matrix()
    assert len(full) == 18
    assert {spec.kind for spec in full} == {"line", "star", "tree"}
    assert any(spec.n == 5000 for spec in full)
    smoke = smoke_matrix()
    assert all(spec.demand == "heavy" and spec.n <= 1000 for spec in smoke)
    assert ACCEPTANCE_SCENARIO in {spec.name for spec in default_matrix()}


def test_large_matrix_extends_default_with_10k_tier():
    large = large_matrix()
    base = default_matrix()
    assert large[: len(base)] == base  # additive: committed names unchanged
    extra = large[len(base):]
    assert all(spec.n == 10000 for spec in extra)
    assert {spec.demand for spec in extra} == {"light", "heavy", "bursty"}


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
    full = baseline_default_matrix()
    assert len(full) == 8 * 2 * 2  # algorithms x sizes x demands
    assert {spec.algorithm for spec in full} == set(BASELINE_ALGORITHMS)
    smoke = baseline_smoke_matrix()
    assert {spec.algorithm for spec in smoke} == set(BASELINE_ALGORITHMS)
    assert all(spec.n == 100 and spec.demand == "heavy" for spec in smoke)
    names = [spec.name for spec in full]
    assert len(set(names)) == len(names)


def test_run_baseline_scenario_measures_counts_and_bound():
    result = run_baseline_scenario(
        BaselineScenarioSpec("lamport", 10, "heavy"), repeat=1
    )
    assert result.scenario == "lamport-star-n10-heavy"
    assert result.entries == 100  # 10 rounds x 10 nodes
    assert result.messages_per_entry == pytest.approx(27.0)  # 3 (N - 1)
    assert result.bound_messages_per_entry == 27.0
    assert result.within_bound
    assert result.events_per_sec > 0


def test_baseline_runs_are_deterministic():
    spec = BaselineScenarioSpec("suzuki-kasami", 10, "light")
    first = run_baseline_scenario(spec, repeat=1)
    second = run_baseline_scenario(spec, repeat=1)
    assert (first.events, first.messages, first.entries) == (
        second.events,
        second.messages,
        second.entries,
    )


def test_baseline_benchmark_document_checks_like_the_dag_one():
    matrix = [BaselineScenarioSpec("centralized", 10, "heavy")]
    document = run_baseline_benchmark(matrix=matrix, repeat=1)
    assert document["schema"] == "bench-baselines/v1"
    assert len(document["scenarios"]) == 1
    json.dumps(document)  # must be serialisable
    # The committed-document gate reuses check_against_baseline unchanged.
    assert check_against_baseline(document["scenarios"], document) == []
    drifted = [dict(document["scenarios"][0], events=1)]
    problems = check_against_baseline(drifted, document)
    assert any("deterministic" in problem for problem in problems)


def test_min_merge_documents_keeps_slowest_rates_and_checks_counts():
    from repro.bench import min_merge_documents

    fast = {"scenarios": [{"scenario": "a", "events": 10, "messages": 5,
                           "entries": 2, "events_per_sec": 1000.0,
                           "messages_per_sec": 500.0, "wall_seconds": 0.01,
                           "peak_rss_kb": 100}]}
    slow = {"scenarios": [dict(fast["scenarios"][0], events_per_sec=700.0,
                               messages_per_sec=350.0, wall_seconds=0.014,
                               peak_rss_kb=110)]}
    merged = min_merge_documents([fast, slow])
    assert merged["scenarios"][0]["events_per_sec"] == 700.0
    assert merged["scenarios"][0]["wall_seconds"] == 0.014
    assert fast["scenarios"][0]["events_per_sec"] == 1000.0  # inputs untouched
    drifted = {"scenarios": [dict(fast["scenarios"][0], events=11)]}
    with pytest.raises(ValueError):
        min_merge_documents([fast, drifted])


def test_calibrated_baseline_benchmark_annotates_the_floor():
    from repro.bench import run_calibrated_baseline_benchmark

    matrix = [BaselineScenarioSpec("centralized", 10, "heavy")]
    document = run_calibrated_baseline_benchmark(matrix=matrix, repeat=1, runs=2)
    assert "minimum events/sec across 2 benchmark runs" in document["calibration"]
    assert len(document["scenarios"]) == 1
    with pytest.raises(ValueError):
        run_calibrated_baseline_benchmark(matrix=matrix, repeat=1, runs=0)


def test_scenario_workloads_are_deterministic():
    topology = build_topology("star", 20)
    first = build_workload(topology, "light")
    second = build_workload(topology, "light")
    assert [(r.node, r.arrival_time) for r in first] == [
        (r.node, r.arrival_time) for r in second
    ]


def test_run_scenario_produces_counts_and_respects_bound():
    result = run_scenario(ScenarioSpec("star", 20, "heavy"), repeat=1)
    assert result.scenario == "star-n20-heavy"
    assert result.entries == 200  # 10 rounds x 20 nodes
    assert result.events > 0
    assert result.events_per_sec > 0
    assert result.messages_per_entry <= result.bound_messages_per_entry + 1e-9


def test_repeated_runs_have_identical_virtual_outcome():
    spec = ScenarioSpec("line", 15, "heavy")
    first = run_scenario(spec, repeat=1)
    second = run_scenario(spec, repeat=1)
    assert (first.events, first.messages, first.entries) == (
        second.events,
        second.messages,
        second.entries,
    )


def test_determinism_fingerprint_is_stable():
    assert determinism_fingerprint() == determinism_fingerprint()


def test_fast_path_replays_observed_path():
    from repro.bench import fast_path_consistent

    assert fast_path_consistent() is True


def test_benchmark_document_structure(tmp_path):
    seed_baseline = {
        "throughput": [],
        "fingerprint": determinism_fingerprint(),
    }
    document = run_benchmark(
        matrix=[ScenarioSpec("star", 10, "heavy")], repeat=1, seed_baseline=seed_baseline
    )
    assert document["schema"] == "bench-throughput/v1"
    assert len(document["scenarios"]) == 1
    assert document["determinism"]["matches_seed"] is True
    json.dumps(document)  # must be serialisable


def test_check_against_baseline_flags_regressions():
    committed = {
        "scenarios": [
            {
                "scenario": "star-n10-heavy",
                "events_per_sec": 1000.0,
                "events": 100,
                "messages": 50,
                "entries": 10,
            }
        ]
    }
    ok = [{"scenario": "star-n10-heavy", "events_per_sec": 900.0,
           "events": 100, "messages": 50, "entries": 10}]
    slow = [{"scenario": "star-n10-heavy", "events_per_sec": 700.0,
             "events": 100, "messages": 50, "entries": 10}]
    drifted = [{"scenario": "star-n10-heavy", "events_per_sec": 1000.0,
                "events": 101, "messages": 50, "entries": 10}]
    assert check_against_baseline(ok, committed, tolerance=0.2) == []
    assert len(check_against_baseline(slow, committed, tolerance=0.2)) == 1
    problems = check_against_baseline(drifted, committed, tolerance=0.2)
    assert any("deterministic" in p for p in problems)


def test_tiny_scenarios_are_timed_over_a_replay_window():
    from repro.bench.throughput import (
        MIN_MEASUREMENT_WINDOW_SECONDS,
        measure_fastest,
    )
    from repro.baselines import registry

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
    assert events > 0 and messages > 0 and result.completed_entries == 100


def test_committed_bench_fingerprint_still_replays():
    """The committed seed fingerprint must replay on the current engine.

    This is the determinism acceptance check: the optimized core produces
    the exact metrics the seed (pre-optimization) engine produced on the
    fixed-seed 50-node run.
    """
    from pathlib import Path

    baseline = Path(__file__).resolve().parents[1] / "benchmarks" / "seed_baseline.json"
    with open(baseline, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    assert determinism_fingerprint() == recorded["fingerprint"]


def test_xlarge_matrix_extends_large_with_100k_tier():
    from repro.bench import xlarge_matrix

    large = large_matrix()
    xlarge = xlarge_matrix()
    assert xlarge[: len(large)] == large  # additive: committed names unchanged
    extra = xlarge[len(large):]
    assert [spec.n for spec in extra] == [100000, 100000]
    assert {spec.kind for spec in extra} == {"star", "tree"}
    assert all(spec.demand == "heavy" for spec in extra)


def test_profiled_benchmark_embeds_hotspots(capsys):
    document = run_benchmark(
        matrix=[ScenarioSpec("star", 20, "heavy")], repeat=1, profile=True
    )
    rows = document["profile"]
    assert 0 < len(rows) <= 20
    assert {"function", "ncalls", "tottime", "cumtime"} <= set(rows[0])
    # Sorted by cumulative time, and the dump went to stderr for humans.
    cumtimes = [row["cumtime"] for row in rows]
    assert cumtimes == sorted(cumtimes, reverse=True)
    assert "cumulative" in capsys.readouterr().err


def test_run_calibrated_benchmark_min_merges_the_dag_matrix():
    document = run_calibrated_benchmark(
        matrix=[ScenarioSpec("star", 20, "heavy")], repeat=1, runs=2
    )
    assert "calibration" in document
    assert len(document["scenarios"]) == 1
    assert document["determinism"]["fast_path_matches_observed"] is True


def test_xxlarge_matrix_extends_xlarge_with_1m_tier():
    from repro.bench import xlarge_matrix, xxlarge_matrix

    xlarge = xlarge_matrix()
    xxlarge = xxlarge_matrix()
    assert xxlarge[: len(xlarge)] == xlarge  # additive: committed names unchanged
    extra = xxlarge[len(xlarge):]
    assert [spec.n for spec in extra] == [1_000_000, 1_000_000]
    assert {spec.kind for spec in extra} == {"star", "tree"}
    assert all(spec.demand == "heavy" for spec in extra)
    assert "star-n1000000-heavy" in {spec.name for spec in extra}


def test_xxxlarge_matrix_extends_xxlarge_with_10m_tier():
    from repro.bench import xxlarge_matrix, xxxlarge_matrix

    xxlarge = xxlarge_matrix()
    xxxlarge = xxxlarge_matrix()
    assert xxxlarge[: len(xxlarge)] == xxlarge  # additive: committed names unchanged
    extra = xxxlarge[len(xxlarge):]
    assert [spec.n for spec in extra] == [10_000_000, 10_000_000]
    assert {spec.kind for spec in extra} == {"star", "tree"}
    assert all(spec.demand == "heavy" for spec in extra)


def test_run_scenario_records_engaged_node_backend():
    reference = run_scenario(ScenarioSpec("star", 20, "heavy"), repeat=1)
    assert reference.node_backend == "object"  # auto below the threshold
    forced = run_scenario(
        ScenarioSpec("star", 20, "heavy"), repeat=1, node_backend="compact"
    )
    assert forced.node_backend == "compact"
    # Forcing the backend never changes virtual-time outcomes.
    assert (forced.events, forced.messages, forced.entries) == (
        reference.events,
        reference.messages,
        reference.entries,
    )


def test_setup_rows_record_engaged_node_backend():
    from repro.bench import run_setup_scenario

    row = run_setup_scenario(ScenarioSpec("star", 50, "heavy"))
    assert row["node_backend"] == "object"
    forced = run_setup_scenario(
        ScenarioSpec("star", 50, "heavy"), node_backend="compact"
    )
    assert forced["node_backend"] == "compact"


def test_heavy_workloads_stream_at_the_node_threshold(monkeypatch):
    from repro.bench import throughput
    from repro.workload import StreamingWorkload, Workload

    topology = build_topology("star", 40)
    # Below the threshold: the frozen materialised definition, untouched.
    materialised = build_workload(topology, "heavy")
    assert isinstance(materialised, Workload)
    assert len(materialised) == 400  # 10 rounds x n
    # At the threshold (lowered so the test doesn't build a 500k topology):
    # the streamed definition with the xxlarge round count.
    monkeypatch.setattr(throughput, "STREAMING_NODE_THRESHOLD", 40)
    streamed = build_workload(topology, "heavy")
    assert isinstance(streamed, StreamingWorkload)
    assert len(streamed) == throughput.XXLARGE_HEAVY_ROUNDS * 40


def test_setup_benchmark_times_every_construction_phase():
    from repro.bench import construction_matrix, run_setup_benchmark, xxlarge_matrix

    cells = construction_matrix(xxlarge_matrix())
    assert [spec.n for spec in cells] == [100000, 100000, 1_000_000, 1_000_000]

    # A small stand-in matrix keeps the test fast; phases and document
    # structure are what is under test, not 1M-node wall time.
    document = run_setup_benchmark(
        [ScenarioSpec("star", 50, "heavy")], budget_seconds=60.0
    )
    assert document["schema"] == "bench-setup/v1"
    assert document["within_budget"] is True
    (row,) = document["scenarios"]
    assert row["scenario"] == "star-n50-heavy"
    assert row["streamed"] is False
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
        [ScenarioSpec("star", 50, "heavy")], budget_seconds=0.0
    )
    assert busted["within_budget"] is False
    assert busted["over_budget"]


def test_setup_benchmark_loads_only_the_first_chunk_of_a_stream(monkeypatch):
    from repro.bench import run_setup_scenario, throughput
    from repro.workload import WorkloadGenerator

    monkeypatch.setattr(throughput, "STREAMING_NODE_THRESHOLD", 40)
    real_stream = WorkloadGenerator.heavy_demand_stream
    monkeypatch.setattr(
        WorkloadGenerator,
        "heavy_demand_stream",
        lambda self, **kwargs: real_stream(
            self, **{**kwargs, "chunk_requests": 25}
        ),
    )
    row = run_setup_scenario(ScenarioSpec("star", 40, "heavy"))
    assert row["streamed"] is True
    assert row["total_requests"] == throughput.XXLARGE_HEAVY_ROUNDS * 40
    # One chunk of arrivals plus the pending loader event.
    assert row["loaded_arrivals"] == 25 + 1
