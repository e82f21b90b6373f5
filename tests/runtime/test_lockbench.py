"""The lock-service benchmark harness: runs, min-merge, regression gate."""

from __future__ import annotations

import copy
from functools import partial

import pytest

from repro.benchdoc import RUNTIME, check, merge
from repro.exceptions import ExperimentError, LockError
from repro.runtime.lockbench import (
    LockBenchCell,
    lockbench_cell,
    lockbench_matrix,
    lockbench_row,
    run_lockbench,
    run_lockbench_scenario,
)
from repro.spec import ObsSpec, RuntimeFaultSpec, RuntimeSpec, ShardCrashSpec, TopologySpec


merge_runtime = partial(merge, RUNTIME)


def runtime_problems(rows, committed, *, tolerance=0.5, latency_tolerance=3.0):
    """The runtime gate's problem list at the CLI's default tolerances."""
    problems, _ = check(
        RUNTIME, rows, committed, tolerance=tolerance, latency_tolerance=latency_tolerance
    )
    return problems


def service(shards=2, **settings) -> RuntimeSpec:
    """The matrix's service shape: dag on a 4-agent star per key, obs on."""
    return RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=4),
        shards=shards,
        obs=ObsSpec(enabled=True),
        **settings,
    )


def tiny() -> LockBenchCell:
    return lockbench_cell(service(), clients=6, locks=3, ops=2, channels=2)


def tiny_crash() -> LockBenchCell:
    crash = RuntimeFaultSpec(crashes=(ShardCrashSpec(shard=1, at=0.2),))
    return lockbench_cell(
        service(faults=crash, heartbeat_interval=0.05, miss_window=0.5),
        clients=40,
        locks=8,
        ops=4,
        channels=2,
        op_timeout=5.0,
    )


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #
def test_scenario_names_and_validation():
    scenario = tiny()
    assert scenario.name == "unix-s2-c6-k3-o2"
    spec = scenario.spec
    assert spec.algorithm == "dag" and spec.shards == 2
    assert spec.name == "dag-star-n4-s2-unix"
    with pytest.raises(LockError):
        lockbench_cell(service(1), clients=0, locks=1, ops=1)


def test_crash_scenarios_declare_their_fault_in_the_spec():
    scenario = tiny_crash()
    assert scenario.name == "unix-s2-c40-k8-o4+crash1"
    (crash,) = scenario.spec.faults.crashes
    assert crash.shard == 1 and crash.at == 0.2
    # Failover cells of the committed matrix tighten detection.
    committed_crash, _ = lockbench_matrix("faults")
    assert committed_crash.spec.miss_window < 2.0
    with pytest.raises(LockError, match=">= 2 shards"):
        lockbench_cell(
            service(1, faults=RuntimeFaultSpec(crashes=(ShardCrashSpec(shard=0, at=0.2),))),
            clients=1, locks=1, ops=1,
        )


def test_drop_scenarios_require_a_client_deadline():
    """A dropped frame is never answered: a drop cell without op_timeout
    would hang on its first loss, so the cell refuses to exist."""
    lossy = service(1, faults=RuntimeFaultSpec(drop_rate=0.1))
    with pytest.raises(LockError, match="op_timeout"):
        lockbench_cell(lossy, clients=1, locks=1, ops=1)
    # The range check is the spec's own.
    with pytest.raises(ExperimentError, match="drop_rate"):
        RuntimeFaultSpec(drop_rate=1.5)
    scenario = lockbench_cell(lossy, clients=1, locks=1, ops=1, op_timeout=1.0)
    assert scenario.name == "unix-s1-c1-k1-o1+drop10"
    assert scenario.spec.faults.drop_rate == 0.1 and scenario.spec.faults.crashes == ()
    _, committed_drop = lockbench_matrix("faults")
    assert committed_drop.spec.miss_window == 2.0  # drops alone don't tighten detection


def test_fault_matrix_covers_a_crash_and_a_lossy_transport():
    crash, drop = lockbench_matrix("faults")
    assert crash.probe.clients >= 1000 and crash.spec.shards == 2
    (declared,) = crash.spec.faults.crashes
    assert declared.shard == 1 and crash.probe.op_timeout is not None
    # The drop cell exercises the other declarative runtime fault — and
    # deliberately at lower contention, so a legitimately-queued acquire
    # never outlives its deadline and burns the retry budget.
    assert drop.spec.faults.crashes == () and drop.spec.faults.drop_rate > 0.0
    assert drop.probe.op_timeout is not None
    assert drop.probe.clients < crash.probe.clients
    assert drop.name.endswith("+drop1")


def test_smoke_matrix_is_the_acceptance_cell():
    (cell,) = lockbench_matrix("smoke")
    assert cell.probe.clients >= 1000  # the >= 1k concurrent sessions criterion
    assert cell.spec.shards >= 2
    assert cell.spec.socket == "unix"
    assert cell in lockbench_matrix()


def canned_outcome(cell: LockBenchCell) -> dict:
    """What `_drive_sessions` would hand back after a clean run of ``cell``."""
    total = cell.probe.clients * cell.probe.ops
    return {
        "latencies": [0.001] * total,
        "completions": [0.01 * index for index in range(total)],
        "session_latencies": {s: [0.001] * cell.probe.ops for s in range(cell.probe.clients)},
        "errors": 0,
        "fenced": 0,
        "wall": 1.0,
        "shard_stats": [{"exclusion_violations": 0, "takeovers": 1}],
        "retry_stats": {"retries": 2},
    }


def test_a_cell_built_from_a_spec_file_reports_the_files_crash(tmp_path):
    """The row is assembled from the one spec the service ran: a loaded
    runtime-spec/v1 file with a ShardCrashSpec yields a crash-named cell whose
    row carries the ``fault`` block and the failover timing (at the parent the
    CLI's scenario dropped the file's faults and the row said nothing)."""
    from repro.cli import _runtime_scenario, build_parser

    path = tmp_path / "crashy.json"
    tiny_crash().spec.save(str(path))
    args = build_parser().parse_args(["run", "--spec", str(path), "--sessions", "4"])
    cell = _runtime_scenario(RuntimeSpec.load(str(path)), args)
    assert cell.spec == tiny_crash().spec
    assert cell.name == "unix-s2-c4-k8-o5+crash1"
    assert cell.probe.op_timeout == 5.0  # faults swallow frames: a deadline
    row = lockbench_row(cell, canned_outcome(cell), events=[])
    assert row["fault"] == {"crash_shard": 1, "crash_at": 0.2}
    assert row["timing"]["failover"]["ops_retried"] == 2
    assert row["timing"]["failover"]["takeovers"] == 1
    assert (row["shards"], row["agents"], row["socket"]) == (2, 4, "unix")
    # A healthy spec file: no fault block, no failover timing.
    healthy = lockbench_cell(service(), clients=4, locks=8, ops=5)
    row = lockbench_row(healthy, canned_outcome(healthy), events=[])
    assert "fault" not in row and "failover" not in row["timing"]
    assert row["timing"]["fairness"]["sessions"] == 4


# --------------------------------------------------------------------------- #
# a real (tiny) run
# --------------------------------------------------------------------------- #
@pytest.mark.network
def test_tiny_scenario_completes_every_op():
    row = run_lockbench_scenario(tiny())
    assert row["ops_total"] == 12
    assert row["ops_completed"] == 12
    assert row["errors"] == 0
    timing = row["timing"]
    assert timing["locks_per_sec"] > 0
    assert 0 < timing["acquire_p50_ms"] <= timing["acquire_p99_ms"]
    assert timing["acquire_p99_ms"] <= timing["acquire_max_ms"]


@pytest.mark.network
def test_run_lockbench_assembles_the_document():
    document = run_lockbench(matrix=[tiny()])
    assert document["schema"] == "bench-runtime/v1"
    assert [row["scenario"] for row in document["scenarios"]] == ["unix-s2-c6-k3-o2"]


@pytest.mark.network
def test_crash_cell_completes_every_op_and_reports_failover():
    """The PR's acceptance cell in miniature: one of two shards dies mid-run,
    every session still finishes via retry + takeover, no double grants."""
    row = run_lockbench_scenario(tiny_crash())
    assert row["ops_completed"] == row["ops_total"] == 160
    assert row["errors"] == 0
    assert row["exclusion_violations"] == 0
    assert row["fault"] == {"crash_shard": 1, "crash_at": 0.2}
    failover = row["timing"]["failover"]
    assert failover["takeover_ms"] > 0
    assert 0 < failover["availability"] <= 1
    assert failover["takeovers"] >= 0  # lazy: only touched keys move


@pytest.mark.network
def test_drop_cell_completes_every_op_through_retries():
    """Frame loss + client deadlines: every dropped op is retried under its
    original id (deduplicated server-side) until it lands — no op lost, no
    double grant, and the stats path stays bounded too."""
    scenario = lockbench_cell(
        service(1, faults=RuntimeFaultSpec(drop_rate=0.2, seed=3)),
        clients=4,
        locks=2,
        ops=2,
        channels=2,
        op_timeout=0.5,
        seed=3,
    )
    row = run_lockbench_scenario(scenario)
    assert row["ops_completed"] == row["ops_total"] == 8
    assert row["errors"] == 0
    assert row["exclusion_violations"] == 0
    assert row["fault"] == {"drop_rate": 0.2}
    assert "failover" not in row["timing"]  # no crash in this cell


# --------------------------------------------------------------------------- #
# min-merge calibration
# --------------------------------------------------------------------------- #
def synthetic_document(rate: float, p99: float) -> dict:
    return {
        "schema": "bench-runtime/v1",
        "scenarios": [
            {
                "scenario": "unix-s2-c6-k3-o2",
                "ops_total": 12,
                "ops_completed": 12,
                "errors": 0,
                "timing": {
                    "wall_seconds": 12 / rate,
                    "locks_per_sec": rate,
                    "acquire_p50_ms": p99 / 2,
                    "acquire_p99_ms": p99,
                    "acquire_mean_ms": p99 / 2,
                    "acquire_max_ms": p99 * 1.1,
                },
            }
        ],
    }


def synthetic_fault_document(takeover: float, availability: float) -> dict:
    document = synthetic_document(1000.0, 10.0)
    row = document["scenarios"][0]
    row["scenario"] = "unix-s2-c6-k3-o2+crash1"
    row["exclusion_violations"] = 0
    row["fault"] = {"crash_shard": 1, "crash_at": 0.2}
    row["timing"]["failover"] = {
        "detection_ms": takeover / 2,
        "takeover_ms": takeover,
        "unavailable_ms": takeover,
        "availability": availability,
        "takeovers": 2,
        "abandoned": 0,
        "ops_retried": 5,
        "ops_rerouted": 1,
        "ops_fenced": 1,
        "deadline_timeouts": 0,
    }
    return document


def test_min_merge_keeps_slowest_rate_and_largest_latency():
    merged = merge_runtime(
        [synthetic_document(2000.0, 5.0), synthetic_document(1500.0, 9.0)]
    )
    timing = merged["scenarios"][0]["timing"]
    assert timing["locks_per_sec"] == 1500.0
    assert timing["acquire_p99_ms"] == 9.0
    assert timing["acquire_max_ms"] == pytest.approx(9.9)


def test_min_merge_rejects_deterministic_drift():
    drifted = synthetic_document(2000.0, 5.0)
    drifted["scenarios"][0]["errors"] = 3
    with pytest.raises(ValueError, match="errors"):
        merge_runtime([synthetic_document(2000.0, 5.0), drifted])


def test_min_merge_is_conservative_on_failover_measurements():
    merged = merge_runtime(
        [synthetic_fault_document(30.0, 0.99), synthetic_fault_document(80.0, 0.95)]
    )
    failover = merged["scenarios"][0]["timing"]["failover"]
    assert failover["takeover_ms"] == 80.0  # ceiling
    assert failover["availability"] == 0.95  # floor


def synthetic_fairness_document(p99: float, depth: int) -> dict:
    document = synthetic_document(2000.0, 5.0)
    document["scenarios"][0]["timing"]["fairness"] = {
        "sessions": 6,
        "session_p50_ms": p99 / 2,
        "session_p99_ms": p99,
        "session_max_ms": p99 * 1.2,
        "max_queue_depth": depth,
    }
    return document


def test_min_merge_takes_the_worst_fairness_spread():
    merged = merge_runtime(
        [synthetic_fairness_document(4.0, 2), synthetic_fairness_document(9.0, 5)]
    )
    fairness = merged["scenarios"][0]["timing"]["fairness"]
    assert fairness["sessions"] == 6  # identity, never merged
    assert fairness["session_p99_ms"] == 9.0
    assert fairness["session_max_ms"] == pytest.approx(10.8)
    assert fairness["max_queue_depth"] == 5


def test_min_merge_adopts_fairness_when_one_side_lacks_it():
    # Older committed documents predate the fairness block; a calibration
    # run that carries one must not be discarded against them.
    merged = merge_runtime(
        [synthetic_document(2000.0, 5.0), synthetic_fairness_document(4.0, 2)]
    )
    assert merged["scenarios"][0]["timing"]["fairness"]["max_queue_depth"] == 2
    flipped = merge_runtime(
        [synthetic_fairness_document(4.0, 2), synthetic_document(2000.0, 5.0)]
    )
    assert flipped["scenarios"][0]["timing"]["fairness"]["session_p99_ms"] == 4.0


def test_min_merge_rejects_exclusion_violation_drift():
    clean = synthetic_fault_document(30.0, 0.99)
    dirty = synthetic_fault_document(30.0, 0.99)
    dirty["scenarios"][0]["exclusion_violations"] = 1
    with pytest.raises(ValueError, match="exclusion"):
        merge_runtime([clean, dirty])


def test_min_merge_rejects_mismatched_matrices():
    other = synthetic_document(2000.0, 5.0)
    other["scenarios"][0]["scenario"] = "unix-s4-c6-k3-o2"
    with pytest.raises(ValueError, match="mismatch"):
        merge_runtime([synthetic_document(2000.0, 5.0), other])


# --------------------------------------------------------------------------- #
# the regression gate
# --------------------------------------------------------------------------- #
def test_check_passes_identical_documents():
    committed = synthetic_document(2000.0, 5.0)
    assert runtime_problems(committed["scenarios"], committed) == []


def test_check_flags_rate_regressions_and_latency_blowups():
    committed = synthetic_document(2000.0, 5.0)
    slow = synthetic_document(2000.0, 5.0)
    slow["scenarios"][0]["timing"]["locks_per_sec"] = 900.0  # below 50% floor
    problems = runtime_problems(slow["scenarios"], committed, tolerance=0.5)
    assert any("locks_per_sec" in problem for problem in problems)

    laggy = synthetic_document(2000.0, 5.0)
    laggy["scenarios"][0]["timing"]["acquire_p99_ms"] = 25.0  # over 4x ceiling
    problems = runtime_problems(
        laggy["scenarios"], committed, latency_tolerance=3.0
    )
    assert any("p99" in problem for problem in problems)


def test_check_is_exact_on_op_counts():
    committed = synthetic_document(2000.0, 5.0)
    broken = copy.deepcopy(committed)
    broken["scenarios"][0]["ops_completed"] = 11
    problems = runtime_problems(broken["scenarios"], committed)
    assert any("ops_completed" in problem for problem in problems)


def test_check_fails_any_exclusion_violation_even_without_a_reference():
    """Mutual exclusion is absolute: no committed row is needed to fail it."""
    fresh = synthetic_fault_document(30.0, 0.99)
    fresh["scenarios"][0]["scenario"] = "unix-brand-new-cell"
    fresh["scenarios"][0]["exclusion_violations"] = 2
    problems = runtime_problems(
        fresh["scenarios"], {"schema": RUNTIME.schema, "scenarios": []}
    )
    assert any("exclusion" in problem for problem in problems)


def test_check_gates_time_to_takeover():
    committed = synthetic_fault_document(30.0, 0.99)
    slow = synthetic_fault_document(200.0, 0.99)  # over 30 * (1 + 3.0)
    problems = runtime_problems(
        slow["scenarios"], committed, latency_tolerance=3.0
    )
    assert any("takeover" in problem for problem in problems)
    fine = synthetic_fault_document(35.0, 0.99)
    assert runtime_problems(fine["scenarios"], committed) == []


def test_check_ignores_scenarios_missing_from_the_committed_document():
    committed = synthetic_document(2000.0, 5.0)
    fresh = synthetic_document(100.0, 100.0)
    fresh["scenarios"][0]["scenario"] = "unix-s8-new-cell"
    # Matrix growth is not a regression: the unmatched (and much slower) row
    # is skipped as long as some row was actually compared...
    both = fresh["scenarios"] + committed["scenarios"]
    assert check(RUNTIME, both, committed, tolerance=0.5) == ([], 1)
    # ...but a gate that matched nothing has not passed.
    problems, compared = check(RUNTIME, fresh["scenarios"], committed, tolerance=0.5)
    assert compared == 0 and "0 rows compared" in problems[0]


def test_committed_runtime_document_gates_green_against_itself():
    """BENCH_runtime.json is a calibrated floor: it must pass its own gate."""
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "BENCH_runtime.json"
    committed = json.loads(path.read_text())
    assert committed["schema"] == "bench-runtime/v1"
    names = [row["scenario"] for row in committed["scenarios"]]
    assert "unix-s2-c1000-k64-o10" in names  # the CI acceptance cell
    assert "tcp-s2-c1000-k64-o10" in names  # the TCP cell
    assert "unix-s2-c1000-k64-o10+crash1" in names  # the crash chaos cell
    assert "unix-s2-c100-k64-o10+drop1" in names  # the lossy-transport cell
    crash_row = next(r for r in committed["scenarios"] if "+crash" in r["scenario"])
    assert crash_row["exclusion_violations"] == 0
    assert crash_row["timing"]["failover"]["takeover_ms"] > 0
    drop_row = next(r for r in committed["scenarios"] if "+drop" in r["scenario"])
    assert drop_row["exclusion_violations"] == 0
    assert drop_row["errors"] == 0  # every op lands despite the losses
    assert drop_row["fault"] == {"drop_rate": 0.01}
    assert runtime_problems(committed["scenarios"], committed) == []
