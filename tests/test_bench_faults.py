"""Fault-tier benchmark harness: matrices, rows, determinism."""

from __future__ import annotations

from repro import benchdoc
from repro.bench import (
    fault_cell,
    fault_matrix,
    run_fault_benchmark,
    run_fault_scenario,
)
from repro.baselines import registry

#: Small cells keep these tests fast; the committed document uses n=50/100k.
SMALL_DEGRADATION = fault_cell("dag", 9, "drop5")
SMALL_RECOVERY = fault_cell("dag", 9, "crash-recover")


def test_matrices_cover_all_algorithms_and_the_recovery_tiers():
    names = [spec.name for spec in fault_matrix()]
    assert len(names) == len(set(names))
    for algorithm in registry.names():
        assert f"{algorithm}-star-n50-heavy+drop1" in names
        assert f"{algorithm}-star-n50-heavy+crash-holder" in names
    assert "dag-star-n50-heavy+crash-recover" in names
    assert "dag-star-n100000-heavy+crash-recover" in names
    # The smoke subset is a strict subset with the n=50 recovery cell.
    smoke = [spec.name for spec in fault_matrix("smoke")]
    assert set(smoke) < set(names)
    assert "dag-star-n50-heavy+crash-recover" in smoke


def test_degradation_row_shape():
    row = run_fault_scenario(SMALL_DEGRADATION)
    assert row["scenario"] == "dag-star-n9-heavy+drop5"
    assert (row["algorithm"], row["n"], row["profile"]) == ("dag", 9, "drop5")
    assert row["entries"] >= 0 and row["events"] > 0
    assert row["total_faults"] >= 1
    assert len(row["fault_log_sha256"]) == 64
    assert "recovery" not in row
    assert set(row["timing"]) == {"wall_seconds", "events_per_sec"}


def test_recovery_row_reports_time_to_liveness():
    row = run_fault_scenario(SMALL_RECOVERY)
    recovery = row["recovery"]
    assert recovery["time_to_liveness"] > 0
    assert recovery["regenerated_at"] > recovery["token_lost_at"]
    assert row["unserved_nodes"] == 1  # only the crashed holder goes unserved


def test_document_and_deterministic_projection():
    document = run_fault_benchmark(matrix=[SMALL_DEGRADATION, SMALL_RECOVERY])
    assert document["schema"] == "bench-faults/v1"
    stripped = benchdoc.deterministic(document)
    assert "generated_by" not in stripped
    assert all("timing" not in row for row in stripped["scenarios"])
    again = benchdoc.deterministic(
        run_fault_benchmark(matrix=[SMALL_DEGRADATION, SMALL_RECOVERY])
    )
    assert stripped == again
    # A fresh document gates green against itself, recovery block included.
    assert benchdoc.check(
        benchdoc.FAULTS, document["scenarios"], document, tolerance=1.0
    ) == ([], 2)


def test_partition_heal_rows_are_in_the_matrices_and_the_committed_doc():
    import json
    from pathlib import Path

    names = [spec.name for spec in fault_matrix()]
    assert "dag-star-n50-heavy+partition-heal" in names
    assert "ricart-agrawala-star-n50-heavy+partition-heal" in names
    smoke = [spec.name for spec in fault_matrix("smoke")]
    assert "dag-star-n50-heavy+partition-heal" in smoke
    committed = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCH_faults.json").read_text()
    )
    rows = {row["scenario"]: row for row in committed["scenarios"]}
    for name in (
        "dag-star-n50-heavy+partition-heal",
        "ricart-agrawala-star-n50-heavy+partition-heal",
    ):
        # The cut always lands; the heal only counts if the run is still
        # going at heal time (dag drains its queue before the window ends).
        assert rows[name]["total_faults"] >= 1
        assert len(rows[name]["fault_log_sha256"]) == 64
