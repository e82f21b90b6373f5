"""Runtime observability: shard registries, fairness rows, traces, CLI routing."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runtime.lockbench import (
    LockBenchCell,
    lockbench_cell,
    lockbench_matrix,
    run_lockbench_scenario,
    write_lockbench_trace,
)
from repro.spec import ObsSpec, RuntimeSpec, TopologySpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def tiny(*, obs: bool = True) -> LockBenchCell:
    spec = RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=4),
        shards=2,
        obs=ObsSpec(enabled=True) if obs else None,
    )
    return lockbench_cell(spec, clients=6, locks=3, ops=2, channels=2)


def runtime_spec_file(tmp_path, *, obs=None) -> str:
    spec = RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=4),
        shards=2,
        socket="unix",
        obs=obs,
    )
    path = tmp_path / "runtime_spec.json"
    spec.save(str(path))
    return str(path)


def test_scenario_obs_flag_threads_into_the_runtime_spec():
    # Every committed cell stands its service up with obs on...
    for tier in ("default", "smoke", "faults"):
        assert all(cell.spec.obs == ObsSpec(enabled=True) for cell in lockbench_matrix(tier))
    # ...and the cell name does not change with it: committed rows keep
    # their identity whether or not instrumentation is on.
    assert tiny().name == tiny(obs=False).name


@pytest.mark.network
def test_row_carries_fairness_and_queue_depth():
    row = run_lockbench_scenario(tiny())
    fairness = row["timing"]["fairness"]
    assert fairness["sessions"] == 6
    assert 0 < fairness["session_p50_ms"] <= fairness["session_p99_ms"]
    assert fairness["session_p99_ms"] <= fairness["session_max_ms"]
    # Contended 3-key namespace under 6 sessions: someone queued somewhere,
    # and the watermark came through the shard's stats frame.
    assert isinstance(fairness["max_queue_depth"], int)
    assert fairness["max_queue_depth"] >= 0


@pytest.mark.network
def test_obs_disabled_row_omits_fairness_and_shard_registry():
    outcome: dict = {}
    row = run_lockbench_scenario(tiny(obs=False), outcome_out=outcome)
    assert "fairness" not in row["timing"]
    assert row["ops_completed"] == row["ops_total"]
    for stats in outcome["shard_stats"]:
        assert "obs" not in stats  # the stats frame stays lean when disabled


@pytest.mark.network
def test_shard_stats_frame_publishes_the_registry():
    outcome: dict = {}
    run_lockbench_scenario(tiny(), outcome_out=outcome)
    assert outcome["shard_stats"], "expected at least one stats frame"
    for stats in outcome["shard_stats"]:
        registry = stats["obs"]["registry"]
        assert registry["enabled"] is True
        metrics = registry["metrics"]
        assert metrics["shard.acquire_wait_ms"]["type"] == "histogram"
        assert metrics["shard.queue_depth_max"]["type"] == "gauge"
        assert metrics["shard.stats.acquires"]["value"] == stats["acquires"]
        assert isinstance(stats["obs"]["queue_depths"], dict)


@pytest.mark.network
def test_trace_collects_op_lifecycles_and_writes_canonical_json(tmp_path):
    trace: list = []
    row = run_lockbench_scenario(tiny(), trace=trace)
    assert trace, "expected client op spans in the trace"
    acquires = [e for e in trace if e["cat"] == "acquire"]
    assert len(acquires) == row["ops_completed"]
    for event in acquires:
        assert event["ph"] == "X" and event["dur"] >= 1
        assert event["args"]["outcome"] == "ok"
    path = tmp_path / "trace.json"
    write_lockbench_trace(trace, str(path), metadata={"source": "test"})
    document = json.loads(path.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert len(document["traceEvents"]) == len(trace)
    # Byte-stable: writing the same events again reproduces the same file.
    again = tmp_path / "trace2.json"
    write_lockbench_trace(trace, str(again), metadata={"source": "test"})
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.network
def test_run_cli_routes_runtime_specs_to_the_live_service(capsys, tmp_path):
    """The satellite smoke test: `repro run --spec runtime.json` stands up
    the lock service and drives the probe workload against it."""
    spec_path = runtime_spec_file(tmp_path, obs=ObsSpec(enabled=True))
    trace_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys,
        "run",
        "--spec",
        spec_path,
        "--sessions",
        "4",
        "--session-ops",
        "2",
        "--trace",
        str(trace_path),
    )
    assert code == 0
    assert "repro run (runtime): dag-star-n4-s2-unix" in out
    assert "fairness:" in out
    document = json.loads(trace_path.read_text())
    assert document["traceEvents"], "the live run must emit trace events"


def test_run_cli_rejects_sim_fault_profiles_on_runtime_specs(capsys, tmp_path):
    spec_path = runtime_spec_file(tmp_path)
    code, _ = run_cli(capsys, "run", "--spec", spec_path, "--faults", "drop1")
    assert code == 2


def test_run_cli_print_spec_round_trips_runtime_specs(capsys, tmp_path):
    spec_path = runtime_spec_file(tmp_path, obs=ObsSpec(enabled=True))
    code, out = run_cli(capsys, "run", "--spec", spec_path, "--print-spec")
    assert code == 0
    assert out == RuntimeSpec.load(spec_path).canonical_json()


@pytest.mark.network
def test_run_cli_runtime_snapshot_and_trace(capsys, tmp_path):
    spec_path = runtime_spec_file(tmp_path)  # obs not even enabled: the
    snapshot_path = tmp_path / "snap.json"  # probe flips it on itself
    trace_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys,
        "run",
        "--spec",
        spec_path,
        "--sessions",
        "4",
        "--session-ops",
        "2",
        "--snapshot",
        str(snapshot_path),
        "--trace",
        str(trace_path),
    )
    assert code == 0
    snapshot = json.loads(snapshot_path.read_text())
    assert snapshot["schema"] == "obs-snapshot/v1"
    assert snapshot["source"] == "runtime:dag-star-n4-s2-unix"
    assert snapshot["registry"]["enabled"] is True
    assert any(
        name.endswith("shard.acquire_wait_ms") for name in snapshot["registry"]["metrics"]
    )
    assert snapshot["fairness"]["sessions"] == 4
    assert snapshot["errors"] == 0
    document = json.loads(trace_path.read_text())
    assert document["traceEvents"]
