"""Tests for the sharded sweep runner: determinism, isolation, merging."""

from __future__ import annotations

import pytest

from repro.sweep import (
    CRASH_EXIT_CODE,
    canonical_json,
    deterministic_document,
    execute_scenario,
    merge_documents,
    run_sweep,
    sweep_cell,
)

#: A small but heterogeneous matrix: tree/star, metrics on, three algorithms.
SMALL_MATRIX = [
    sweep_cell("dag", "star", 9, "heavy"),
    sweep_cell("dag", "tree", 9, "bursty"),
    sweep_cell("centralized", "star", 9, "light"),
    sweep_cell("raymond", "star", 9, "hotspot"),
]


def test_execute_scenario_in_process():
    row = execute_scenario(sweep_cell("dag", "star", 9, "heavy"))
    assert row["status"] == "ok"
    assert row["entries"] == 45  # 5 rounds x 9 nodes
    assert row["messages"] > 0
    assert row["messages_per_entry"] <= row["topology_diameter"] + 1
    assert len(row["entry_order_sha256"]) == 64
    assert row["timing"]["peak_rss_kb"] > 0


def test_execute_scenario_metrics_free_fast_path():
    observed = execute_scenario(sweep_cell("dag", "star", 9, "heavy"))
    fast = execute_scenario(
        sweep_cell("dag", "star", 9, "heavy", collect_metrics=False)
    )
    # The unobserved fast path replays the same virtual outcome; only the
    # per-entry timing statistics disappear.
    assert fast["status"] == "ok"
    assert fast["entries"] == observed["entries"]
    assert fast["messages"] == observed["messages"]
    assert fast["entry_order_sha256"] == observed["entry_order_sha256"]
    assert fast["mean_waiting_time"] is None
    assert observed["mean_waiting_time"] is not None


def test_sweep_merged_output_is_byte_identical_for_1_vs_n_workers():
    one = run_sweep(SMALL_MATRIX, workers=1)
    many = run_sweep(list(reversed(SMALL_MATRIX)), workers=3)
    assert one["failures"] == [] and many["failures"] == []
    assert canonical_json(deterministic_document(one)) == canonical_json(
        deterministic_document(many)
    )


def test_sweep_document_layout():
    document = run_sweep(SMALL_MATRIX[:2], workers=2)
    assert document["schema"] == "sweep/v1"
    assert document["matrix_size"] == 2
    names = [row["scenario"] for row in document["scenarios"]]
    assert names == sorted(names)
    assert document["run"]["workers"] == 2
    # Host-dependent fields are confined to run/timing.
    stripped = deterministic_document(document)
    assert "run" not in stripped
    assert all("timing" not in row for row in stripped["scenarios"])
    canonical_json(document)  # full document must serialise too


def test_child_crash_is_isolated_to_its_scenario():
    crashing = sweep_cell("dag", "tree", 9, "bursty", faults="worker-crash")
    matrix = [SMALL_MATRIX[0], crashing, *SMALL_MATRIX[1:]]
    document = run_sweep(matrix, workers=2)
    assert document["failures"] == [crashing.name]
    by_name = {row["scenario"]: row for row in document["scenarios"]}
    crashed = by_name[crashing.name]
    assert crashed["status"] == "crashed"
    assert crashed["exitcode"] == CRASH_EXIT_CODE
    for spec in SMALL_MATRIX:
        assert by_name[spec.name]["status"] == "ok"


def test_child_exception_is_reported_not_raised(monkeypatch):
    # A cell cannot name an unknown algorithm any more (its spec refuses at
    # construction, in the parent), so the child-side failure is injected:
    # forked children inherit the patched worker.
    from repro.sweep import worker

    bad = sweep_cell("dag", "star", 9, "light", faults="drop1")
    real = worker.execute_scenario

    def explode(cell):
        if cell.name == bad.name:
            raise RuntimeError("boom in the child")
        return real(cell)

    monkeypatch.setattr(worker, "execute_scenario", explode)
    document = run_sweep([bad, SMALL_MATRIX[0]], workers=2, start_method="fork")
    by_name = {row["scenario"]: row for row in document["scenarios"]}
    error = by_name[bad.name]
    assert error["status"] == "error"
    assert error["error"] == "RuntimeError: boom in the child"
    # The error row still says what the cell was, read off its spec and name.
    assert (error["algorithm"], error["kind"], error["n"], error["workload"]) == (
        "dag", "star", 9, "light"
    )
    assert error["seed"] == bad.experiment.seed and error["fault_profile"] == "drop1"
    assert by_name[SMALL_MATRIX[0].name]["status"] == "ok"
    assert document["failures"] == [bad.name]


def test_duplicate_scenarios_and_bad_worker_counts_are_rejected():
    with pytest.raises(ValueError):
        run_sweep([SMALL_MATRIX[0], SMALL_MATRIX[0]], workers=2)
    with pytest.raises(ValueError):
        run_sweep(SMALL_MATRIX, workers=0)


def test_merge_documents_combines_disjoint_shards():
    first = run_sweep(SMALL_MATRIX[:2], workers=1)
    second = run_sweep(SMALL_MATRIX[2:], workers=1)
    merged = merge_documents([first, second])
    whole = run_sweep(SMALL_MATRIX, workers=1)
    assert (
        deterministic_document(merged)["scenarios"]
        == deterministic_document(whole)["scenarios"]
    )
    with pytest.raises(ValueError):
        merge_documents([first, first])
