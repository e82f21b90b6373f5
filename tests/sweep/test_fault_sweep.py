"""Fault-tier sweep: scenario validation, matrix, worker-crash isolation."""

from __future__ import annotations

import pytest

from repro.exceptions import WorkloadError
from repro.spec import FAULT_PROFILES
from repro.sweep import (
    CRASH_EXIT_CODE,
    canonical_json,
    deterministic_document,
    execute_scenario,
    cell_from_spec,
    run_sweep,
    sweep_cell,
    sweep_matrix,
)


# --------------------------------------------------------------------------- #
# scenario surface
# --------------------------------------------------------------------------- #
def test_fault_profile_names_are_validated():
    sweep_cell("dag", "star", 9, "heavy", faults="drop1")
    with pytest.raises(WorkloadError):
        sweep_cell("dag", "star", 9, "heavy", faults="no-such-profile")


def test_fault_scenarios_get_their_own_name_and_seed():
    plain = sweep_cell("dag", "star", 9, "heavy")
    faulted = sweep_cell("dag", "star", 9, "heavy", faults="drop1")
    assert faulted.name == plain.name + "+drop1"
    assert faulted.experiment.seed != plain.experiment.seed  # seeds derive from names


def test_round_trip_through_experiment_spec_keeps_the_profile():
    cell = sweep_cell("dag", "star", 9, "heavy", faults="crash-recover")
    assert cell.experiment.faults == FAULT_PROFILES["crash-recover"]
    assert cell_from_spec(cell.experiment) == cell
    assert cell.name.endswith("+crash-recover")
    # An ad-hoc FaultSpec matches no named profile: no row name can carry it.
    import dataclasses

    from repro.spec import FaultSpec

    adhoc = dataclasses.replace(cell.experiment, faults=FaultSpec(drop_rate=0.5))
    with pytest.raises(WorkloadError, match="no named fault profile"):
        cell_from_spec(adhoc)


def test_fault_row_carries_profile_and_summary():
    row = execute_scenario(sweep_cell("dag", "star", 9, "heavy", faults="drop5"))
    assert row["status"] == "ok"
    assert row["fault_profile"] == "drop5"
    assert row["faults"]["total_faults"] >= 1
    assert len(row["faults"]["fault_log_sha256"]) == 64
    # Fault-free rows keep the pre-fault-tier shape.
    plain = execute_scenario(sweep_cell("dag", "star", 9, "heavy"))
    assert "fault_profile" not in plain and "faults" not in plain


# --------------------------------------------------------------------------- #
# the fault tier matrix
# --------------------------------------------------------------------------- #
def test_fault_sweep_matrix_covers_profiles_by_algorithm():
    matrix = sweep_matrix("faults", algorithms=["dag", "maekawa"])
    names = {scenario.name for scenario in matrix}
    # Every message-fault profile for every algorithm...
    for algorithm in ("dag", "maekawa"):
        for profile in ("drop1", "drop5", "lose-privilege", "lose-request",
                        "crash-holder", "partition-heal"):
            assert f"{algorithm}-star-n50-heavy+{profile}" in names
    # ...plus the DAG-only recovery cell.
    assert "dag-star-n50-heavy+crash-recover" in names
    assert not any("maekawa" in n and "crash-recover" in n for n in names)


def test_partition_heal_cell_degrades_then_recovers():
    # The partition window (hub <-> leaf 2, t=5..15) must actually bite: the
    # DAG cell completes fewer entries than the fault-free baseline but is
    # not starved outright, because traffic resumes once the window heals.
    clean = execute_scenario(sweep_cell("dag", "star", 50, "heavy"))
    partitioned = execute_scenario(
        sweep_cell("dag", "star", 50, "heavy", faults="partition-heal")
    )
    assert partitioned["fault_profile"] == "partition-heal"
    assert 0 < partitioned["entries"] < clean["entries"]


def test_fault_sweep_is_byte_identical_across_worker_counts():
    matrix = sweep_matrix("faults", algorithms=["dag"])
    one = run_sweep(matrix, workers=1)
    many = run_sweep(list(reversed(matrix)), workers=3)
    assert one["failures"] == [] and many["failures"] == []
    assert canonical_json(deterministic_document(one)) == canonical_json(
        deterministic_document(many)
    )


# --------------------------------------------------------------------------- #
# structured worker-crash
# --------------------------------------------------------------------------- #
def test_worker_crash_profile_kills_the_child_not_the_sweep():
    crashing = sweep_cell("dag", "star", 9, "heavy", faults="worker-crash")
    survivor = sweep_cell("dag", "star", 9, "bursty")
    document = run_sweep([crashing, survivor], workers=2)
    by_name = {row["scenario"]: row for row in document["scenarios"]}
    crashed = by_name[crashing.name]
    assert crashed["status"] == "crashed"
    assert crashed["exitcode"] == CRASH_EXIT_CODE
    assert crashed["fault_profile"] == "worker-crash"
    assert by_name[survivor.name]["status"] == "ok"
    assert document["failures"] == [crashing.name]
