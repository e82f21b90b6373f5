"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import cells
from repro.cli import build_parser, build_topology, main
from repro.exceptions import TopologyError
from repro.runtime import lockbench as lockbench_module
from repro.runtime.lockbench import lockbench_cell, lockbench_matrix

from .conftest import forced_node_backend


REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def tiny_smoke_cells(tier):
    """A 5-session stand-in for the smoke cell (same service shape)."""
    assert tier == "smoke"
    (acceptance,) = lockbench_matrix("smoke")
    return [lockbench_cell(acceptance.spec, clients=5, locks=3, ops=2, channels=2)]


def test_build_topology_kinds():
    assert build_topology("line", 5).size == 5
    assert build_topology("star", 6).size == 6
    assert build_topology("random", 8, seed=3).size == 8
    assert build_topology("balanced-tree", 7).size >= 3
    assert build_topology("radiating-star", 9).size >= 5
    with pytest.raises(ValueError):
        build_topology("hypercube", 8)


def test_build_topology_token_holder_override():
    assert build_topology("line", 5, token_holder=3).token_holder == 3
    assert build_topology("random", 6, token_holder=2, seed=1).token_holder == 2


def test_parser_requires_a_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_figure2_command(capsys):
    code, out = run_cli(capsys, "figure2")
    assert code == 0
    assert "2 REQUEST, 1 PRIVILEGE" in out
    assert "HOLDING_I" in out


def test_figure6_command(capsys):
    code, out = run_cli(capsys, "figure6")
    assert code == 0
    assert "[2, 1, 5]" in out
    assert "Figure 6k" in out


def test_bounds_command(capsys):
    code, out = run_cli(capsys, "bounds", "--n", "17")
    assert code == 0
    assert "dag" in out
    assert "D + 1" in out or "0 .. D + 1" in out
    assert "lamport" in out


def test_compare_command_with_subset(capsys):
    code, out = run_cli(
        capsys,
        "compare",
        "--n", "7",
        "--requests", "10",
        "--algorithms", "dag", "raymond",
        "--seed", "1",
    )
    assert code == 0
    assert "dag" in out
    assert "raymond" in out
    assert "lamport" not in out.split("Measured")[0]  # subset respected in run table


def test_average_command(capsys):
    code, out = run_cli(capsys, "average", "--sizes", "5", "9")
    assert code == 0
    assert "dag measured" in out
    assert "centralized paper" in out


def test_topology_command(capsys):
    code, out = run_cli(capsys, "topology", "--kind", "star", "--n", "6")
    assert code == 0
    assert "(sink)" in out
    assert "worst case D + 1 = 3" in out


def test_algorithms_command(capsys):
    code, out = run_cli(capsys, "algorithms")
    assert code == 0
    for name in ("dag", "raymond", "maekawa", "singhal"):
        assert name in out


def test_sweep_command_smoke_subset(capsys, tmp_path):
    output = tmp_path / "sweep.json"
    deterministic = tmp_path / "sweep_det.json"
    code, out = run_cli(
        capsys,
        "sweep",
        "--smoke",
        "--workers", "2",
        "--algorithms", "dag", "centralized",
        "--output", str(output),
        "--deterministic-output", str(deterministic),
    )
    assert code == 0
    assert "4/4 scenarios ok" in out
    assert "star topology, N=9, bursty workload" in out
    assert output.exists() and deterministic.exists()
    assert "timing" in output.read_text()
    assert "timing" not in deterministic.read_text()


def test_sweep_report_from_existing_document(capsys, tmp_path):
    output = tmp_path / "sweep.json"
    code, _ = run_cli(
        capsys,
        "sweep", "--smoke", "--workers", "1", "--no-tables",
        "--algorithms", "raymond",
        "--output", str(output),
    )
    assert code == 0
    code, out = run_cli(capsys, "sweep", "--report", str(output))
    assert code == 0
    assert "raymond" in out
    assert "heavy workload" in out


def test_conflicting_tier_flags_are_rejected(capsys):
    for command in ("bench", "sweep"):
        with pytest.raises(SystemExit):
            main([command, "--smoke", "--large"])
        capsys.readouterr()  # discard argparse usage output


def test_bench_baselines_rejects_large_and_profile_rejects_check(capsys, tmp_path):
    assert main(["bench", "--baselines", "--large"]) == 2
    assert "no large tier" in capsys.readouterr().err
    assert main(["bench", "--baselines", "--xlarge"]) == 2
    assert "no xlarge tier" in capsys.readouterr().err
    assert main(["bench", "--baselines", "--xxlarge"]) == 2
    assert "no xlarge tier" in capsys.readouterr().err
    # --profile distorts rates, so gating a profiled run is refused up front.
    check_file = tmp_path / "committed.json"
    check_file.write_text("{}")
    assert main(["bench", "--profile", "--check", str(check_file)]) == 2
    assert "--profile" in capsys.readouterr().err


def test_invalid_numeric_flags_get_clean_cli_errors(capsys):
    # Zero must not be silently treated as "no calibration".
    assert main(["bench", "--baselines", "--calibrate", "0"]) == 2
    assert "at least 1 run" in capsys.readouterr().err
    assert main(["sweep", "--smoke", "--workers", "0"]) == 2
    assert "at least 1 process" in capsys.readouterr().err
    assert main(["sweep", "--smoke", "--timeout", "0"]) == 2
    assert "positive number of seconds" in capsys.readouterr().err
    # `--algorithms` with no values must be a parse error, not "all 9".
    with pytest.raises(SystemExit):
        main(["sweep", "--smoke", "--algorithms"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--n", "0"], "need at least one node, got 0"),
        (["compare", "--n", "0"], "need at least one node, got 0"),
        (["average", "--sizes", "0"], "need at least one node, got 0"),
        (["topology", "--n", "0"], "need at least one node, got 0"),
        (["topology", "--n", "5", "--token-holder", "9"], "token holder 9 is not one of the nodes"),
        (["compare", "--n", "5", "--token-holder", "9"], "token holder 9 is not one of the nodes"),
        (
            ["compare", "--mean-interarrival", "0"],
            "mean_interarrival must be positive and finite, got 0.0",
        ),
        (["sweep", "--report", "/nonexistent/missing.json"], "No such file or directory"),
        (["sweep", "--report", str(REPO_ROOT / "BENCH_faults.json")],
         "has schema 'bench-faults/v1'; --report reads 'sweep/v1' documents"),
    ],
)
def test_unusable_input_is_one_error_line_on_every_verb(capsys, argv, message):
    """At the parent each of these died with a traceback (``TopologyError``,
    ``ValueError``, ``FileNotFoundError``, ``KeyError: 'kind'``) where
    ``run``/``bench``/``sweep``/``lockbench`` already answered bad input
    with one ``error:`` line and exit 2."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "document, message",
    [
        (
            {"algorithm": "dag", "topology": {"kind": "star"}, "workload": {"tier": "heavy"}},
            "topology spec is missing required fields ['n']",
        ),
        (
            {"schema": "runtime-spec/v1", "shards": "2"},
            "runtime spec field 'shards' must be an integer, got '2'",
        ),
    ],
    ids=["experiment-topology-without-n", "runtime-shards-as-string"],
)
def test_run_refuses_a_malformed_spec_file_with_one_error_line(capsys, tmp_path, document, message):
    """At the parent both files died in the constructor with a ``TypeError``
    traceback; the spec loader now refuses them by spec and field name."""
    import json

    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    assert main(["run", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bench_baselines_smoke(capsys, tmp_path):
    output = tmp_path / "baselines.json"
    code, out = run_cli(
        capsys,
        "bench", "--baselines", "--smoke", "--repeat", "1",
        "--output", str(output),
    )
    assert code == 0
    for name in ("lamport", "maekawa", "suzuki-kasami", "raymond"):
        assert name in out
    assert "dag-" not in out
    # A fresh run checked against its own document passes the gate.
    # Tolerance 1.0 puts the rate floor at 0, leaving the exact virtual-time
    # fields: wall-clock gates belong to the CI bench jobs, not tier-1.
    code, out = run_cli(
        capsys,
        "bench", "--baselines", "--smoke", "--repeat", "1",
        "--check", str(output), "--tolerance", "1.0",
    )
    assert code == 0
    assert "passed" in out


def test_bench_check_holds_the_committed_fingerprint_and_rows(capsys, tmp_path, monkeypatch):
    """`repro bench --check` against copies of the committed document: the
    copy as committed passes, one with a fingerprint entry changed fails
    naming the fingerprint, one with a row's messages changed fails naming
    that row.  Tolerance 1.0 puts the rate floor at 0 (no wall-clock gate)."""
    import json

    matrix = [cells.bench_cell("star", 100, "heavy"), cells.bench_cell("line", 100, "heavy")]
    monkeypatch.setattr(cells, "bench_matrix", lambda tier: matrix)
    committed = json.loads((REPO_ROOT / "BENCH_throughput.json").read_text())

    def check(document):
        path = tmp_path / "committed.json"
        path.write_text(json.dumps(document))
        return run_cli(
            capsys, "bench", "--smoke", "--repeat", "1",
            "--check", str(path), "--tolerance", "1.0",
        )

    code, out = check(committed)
    assert code == 0
    assert "fingerprint matches" in out and "2 scenario(s) compared" in out

    refingered = json.loads(json.dumps(committed))
    refingered["determinism"]["fingerprint"]["uniform"]["total_messages"] += 1
    code, out = check(refingered)
    assert code == 1
    assert "DETERMINISM: fingerprint DIFFERS" in out

    recounted = json.loads(json.dumps(committed))
    next(
        row for row in recounted["scenarios"] if row["scenario"] == "line-n100-heavy"
    )["messages"] += 1
    code, out = check(recounted)
    assert code == 1
    assert "fingerprint matches" in out
    assert "line-n100-heavy" in out.split("FAILED:", 1)[1]


def test_bench_setup_only_requires_a_large_tier(capsys):
    assert main(["bench", "--setup-only"]) == 2
    assert "--xlarge, --xxlarge or --xxxlarge" in capsys.readouterr().err
    assert main(["bench", "--setup-only", "--smoke"]) == 2
    capsys.readouterr()
    # And it stands things up instead of draining, so the drain-mode flags
    # are refused outright.
    assert main(["bench", "--setup-only", "--xxlarge", "--calibrate", "2"]) == 2
    assert "no baselines/faults/calibration" in capsys.readouterr().err
    assert main(["bench", "--setup-only", "--xxlarge", "--profile"]) == 2
    capsys.readouterr()


def test_bench_and_sweep_parse_the_xxlarge_tier():
    parser = build_parser()
    args = parser.parse_args(["bench", "--xxlarge", "--repeat", "1"])
    assert args.xxlarge and not args.xlarge
    args = parser.parse_args(
        ["bench", "--xxlarge", "--setup-only", "--budget-seconds", "120"]
    )
    assert args.setup_only and args.budget_seconds == 120.0
    args = parser.parse_args(["sweep", "--xxlarge", "--workers", "2"])
    assert args.xxlarge
    # Tier flags stay mutually exclusive.
    with pytest.raises(SystemExit):
        parser.parse_args(["bench", "--xlarge", "--xxlarge"])
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--smoke", "--xxlarge"])


def test_budget_seconds_without_setup_only_is_rejected(capsys):
    assert main(["bench", "--xxlarge", "--budget-seconds", "120"]) == 2
    assert "--setup-only" in capsys.readouterr().err


def test_xxxlarge_tier_is_construction_only(capsys):
    # Draining a 10M-node cell (~100M events) is not a benchmark run: every
    # drain-mode path refuses the tier and points at --setup-only.
    assert main(["bench", "--xxxlarge"]) == 2
    assert "--setup-only --xxxlarge" in capsys.readouterr().err
    assert main(["bench", "--faults", "--xxxlarge"]) == 2
    capsys.readouterr()
    assert main(["bench", "--baselines", "--xxxlarge"]) == 2
    capsys.readouterr()
    parser = build_parser()
    args = parser.parse_args(["bench", "--setup-only", "--xxxlarge"])
    assert args.xxxlarge and args.setup_only
    # Tier flags stay mutually exclusive.
    with pytest.raises(SystemExit):
        parser.parse_args(["bench", "--xxlarge", "--xxxlarge"])
    capsys.readouterr()


def test_run_reports_the_engaged_node_backend(capsys):
    with forced_node_backend("compact"):
        code, compact_out = run_cli(capsys, "run", "dag", "star:30", "heavy:2")
    assert code == 0
    assert "compact" in compact_out  # the result table's backend column
    code, object_out = run_cli(capsys, "run", "dag", "star:30", "heavy:2")
    assert code == 0
    assert "compact" not in object_out

    def deterministic(out):
        return [
            line for line in out.splitlines()
            if "entry order sha256" in line or "mean waiting time" in line
        ]

    assert deterministic(compact_out) == deterministic(object_out)


@pytest.mark.parametrize("verb", [("run", "dag", "star:9", "heavy"), ("bench",), ("sweep",)])
def test_no_verb_takes_a_node_backend_option(capsys, verb):
    with pytest.raises(SystemExit) as refusal:
        main([*verb, "--node-backend", "compact"])
    assert refusal.value.code == 2
    assert "unrecognized arguments: --node-backend" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# repro run (the declarative spec verb)
# --------------------------------------------------------------------------- #
def test_run_shorthand_executes_a_cell(capsys):
    code, out = run_cli(capsys, "run", "dag", "star:30", "heavy:2", "--no-metrics")
    assert code == 0
    assert "dag-star-n30-heavy" in out
    assert "entry order sha256" in out


def test_run_spec_file_matches_shorthand(capsys, tmp_path):
    path = tmp_path / "cell.json"
    code, _ = run_cli(
        capsys, "run", "dag", "star:30", "heavy:2", "--save-spec", str(path),
        "--print-spec",
    )
    assert code == 0
    from_file_code, from_file_out = run_cli(capsys, "run", "--spec", str(path))
    shorthand_code, shorthand_out = run_cli(capsys, "run", "dag", "star:30", "heavy:2")
    assert from_file_code == shorthand_code == 0
    assert from_file_out == shorthand_out


def test_run_print_spec_round_trips(capsys):
    from repro.spec import ExperimentSpec

    code = main(["run", "raymond", "random:16:3", "diurnal", "--print-spec"])
    out = capsys.readouterr().out
    assert code == 0
    spec = ExperimentSpec.from_json(out)
    assert spec.algorithm == "raymond"
    assert spec.topology.seed == 3
    assert spec.workload.tier == "diurnal"


def test_run_validates_names_with_registry_listing(capsys):
    assert main(["run", "typo", "star:9", "heavy"]) == 2
    err = capsys.readouterr().err
    assert "unknown algorithm" in err and "centralized" in err
    assert main(["run", "dag", "star:9", "sawtooth"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload tier" in err and "diurnal" in err
    assert main(["run", "dag", "hypercube:9", "heavy"]) == 2
    assert "unknown topology kind" in capsys.readouterr().err


def test_run_rejects_bad_invocations(capsys):
    assert main(["run"]) == 2
    assert "ALGO KIND:N TIER" in capsys.readouterr().err
    assert main(["run", "dag", "star:9"]) == 2
    capsys.readouterr()
    assert main(["run", "--spec", "/nonexistent/spec.json"]) == 2
    capsys.readouterr()
    assert main(["run", "dag", "star:9", "heavy", "--spec", "x.json"]) == 2
    assert "not both" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# sweep spec shards (export / from-specs / merge)
# --------------------------------------------------------------------------- #
def test_sweep_shard_round_trip_matches_single_shot(capsys, tmp_path):
    shard_a = tmp_path / "a.specs.json"
    shard_b = tmp_path / "b.specs.json"
    assert main(["sweep", "--smoke", "--algorithms", "dag",
                 "--export-specs", str(shard_a)]) == 0
    assert main(["sweep", "--smoke", "--algorithms", "centralized",
                 "--export-specs", str(shard_b)]) == 0
    capsys.readouterr()

    doc_a = tmp_path / "a.doc.json"
    doc_b = tmp_path / "b.doc.json"
    assert main(["sweep", "--from-specs", str(shard_a), "--workers", "1",
                 "--no-tables", "--output", str(doc_a)]) == 0
    assert main(["sweep", "--from-specs", str(shard_b), "--workers", "1",
                 "--no-tables", "--output", str(doc_b)]) == 0
    capsys.readouterr()

    merged = tmp_path / "merged.det.json"
    single = tmp_path / "single.det.json"
    assert main(["sweep", "--merge", str(doc_a), str(doc_b), "--no-tables",
                 "--deterministic-output", str(merged)]) == 0
    assert main(["sweep", "--smoke", "--algorithms", "dag", "centralized",
                 "--workers", "2", "--no-tables",
                 "--deterministic-output", str(single)]) == 0
    capsys.readouterr()
    assert merged.read_bytes() == single.read_bytes()


def test_sweep_from_specs_excludes_matrix_flags(capsys, tmp_path):
    shard = tmp_path / "shard.specs.json"
    assert main(["sweep", "--smoke", "--algorithms", "dag",
                 "--export-specs", str(shard)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--from-specs", str(shard), "--smoke"]) == 2
    assert "tier flags" in capsys.readouterr().err
    assert main(["sweep", "--from-specs", "/nonexistent.json"]) == 2
    capsys.readouterr()


def test_sweep_merge_rejects_overlapping_shards(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    assert main(["sweep", "--smoke", "--algorithms", "dag", "--workers", "1",
                 "--no-tables", "--output", str(doc)]) == 0
    capsys.readouterr()
    assert main(["sweep", "--merge", str(doc), str(doc)]) == 2
    assert "more than one shard" in capsys.readouterr().err


def test_sweep_merge_rejects_non_document_inputs(capsys, tmp_path):
    shard = tmp_path / "shard.specs.json"
    assert main(["sweep", "--smoke", "--algorithms", "dag",
                 "--export-specs", str(shard)]) == 0
    capsys.readouterr()
    # The easy mix-up: merging a spec-shard file instead of its run output.
    assert main(["sweep", "--merge", str(shard)]) == 2
    assert "--from-specs" in capsys.readouterr().err
    bogus = tmp_path / "bogus.json"
    bogus.write_text("[1, 2, 3]")
    assert main(["sweep", "--merge", str(bogus)]) == 2
    assert "not a sweep result document" in capsys.readouterr().err


def test_run_with_a_fault_profile(capsys):
    code, out = run_cli(
        capsys, "run", "dag", "star:9", "heavy", "--faults", "crash-recover"
    )
    assert code == 0
    assert "faults injected" in out
    assert "crashed nodes" in out
    assert "fault log sha256" in out
    assert "time to liveness" in out


def test_run_rejects_recovery_profiles_on_non_dag_algorithms(capsys):
    code = main(
        ["run", "raymond", "star:9", "heavy", "--faults", "crash-recover"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "dag" in captured.err


def test_bench_faults_smoke_with_self_check(capsys, tmp_path):
    output = tmp_path / "BENCH_faults.fresh.json"
    code, out = run_cli(
        capsys, "bench", "--faults", "--smoke", "--output", str(output)
    )
    assert code == 0
    assert output.exists()
    assert "crash-recover" in out
    # A fresh run checked against itself passes the exact gate (tolerance
    # 1.0: rate floor 0, so ~1 ms cells are not rate-gated against themselves).
    code, out = run_cli(
        capsys,
        "bench", "--faults", "--smoke",
        "--check", str(output), "--tolerance", "1.0",
    )
    assert code == 0
    assert "passed" in out


def test_bench_faults_rejects_incompatible_modes(capsys):
    code, _ = run_cli(capsys, "bench", "--faults", "--baselines")
    assert code == 2
    code, _ = run_cli(capsys, "bench", "--faults", "--xlarge")
    assert code == 2


def test_sweep_faults_tier_runs_and_is_deterministic(capsys, tmp_path):
    first = tmp_path / "faults1.json"
    second = tmp_path / "faults2.json"
    code, _ = run_cli(
        capsys,
        "sweep", "--faults", "--algorithms", "dag",
        "--workers", "2", "--no-tables",
        "--deterministic-output", str(first),
    )
    assert code == 0
    code, _ = run_cli(
        capsys,
        "sweep", "--faults", "--algorithms", "dag",
        "--workers", "1", "--no-tables",
        "--deterministic-output", str(second),
    )
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.network
def test_lockbench_command_runs_and_gates(capsys, tmp_path, monkeypatch):
    # Shrink the smoke matrix so the CLI path stays fast under test; the real
    # 1000-session cell runs in the runtime-smoke CI job.
    monkeypatch.setattr(lockbench_module, "lockbench_matrix", tiny_smoke_cells)
    output = tmp_path / "runtime.json"
    code, out = run_cli(capsys, "lockbench", "--smoke", "--output", str(output))
    assert code == 0
    assert output.exists()
    assert "unix-s2-c5-k3-o2" in out
    # A fresh run checked against itself passes the gate.  Two wall-clock
    # runs of a ms-scale cell may differ by any factor, so this half gates
    # only what is deterministic: --tolerance 1.0 puts the rate floor at 0
    # (as benchdoc.check documents for seed rows) and an infinite latency
    # tolerance lifts the p99 ceiling.
    relaxed = ("--tolerance", "1.0", "--latency-tolerance", "inf")
    code, out = run_cli(
        capsys, "lockbench", "--smoke", "--check", str(output), *relaxed,
    )
    assert code == 0
    assert "passed" in out
    # ...and an impossible committed floor fails it.
    import json

    committed = json.loads(output.read_text())
    committed["scenarios"][0]["timing"]["locks_per_sec"] = 10_000_000.0
    impossible = tmp_path / "impossible.json"
    impossible.write_text(json.dumps(committed))
    code, out = run_cli(
        capsys, "lockbench", "--smoke", "--check", str(impossible),
    )
    assert code == 1
    assert "FAILED" in out
    # The counted fields stay exact under the relaxed tolerances: one op
    # more than the run made fails the gate.
    committed = json.loads(output.read_text())
    committed["scenarios"][0]["ops_total"] += 1
    miscounted = tmp_path / "miscounted.json"
    miscounted.write_text(json.dumps(committed))
    code, out = run_cli(
        capsys, "lockbench", "--smoke", "--check", str(miscounted), *relaxed,
    )
    assert code == 1
    assert "FAILED" in out
    assert "ops_total" in out


def test_lockbench_calibrate_min_merges(capsys, tmp_path, monkeypatch):
    calls = []

    def fake_run_lockbench(*, matrix=None, verbose=False):
        calls.append(len(matrix))
        rate = 2000.0 - 500.0 * len(calls)  # each run slower than the last
        return {
            "schema": "bench-runtime/v1",
            "generated_by": "repro lockbench",
            "scenarios": [
                {
                    "scenario": "unix-s2-c1000-k64-o10",
                    "ops_total": 10000,
                    "ops_completed": 10000,
                    "errors": 0,
                    "timing": {
                        "wall_seconds": 1.0,
                        "locks_per_sec": rate,
                        "acquire_p50_ms": 1.0,
                        "acquire_p99_ms": float(len(calls)),
                        "acquire_mean_ms": 1.0,
                        "acquire_max_ms": float(len(calls)),
                    },
                }
            ],
        }

    monkeypatch.setattr(lockbench_module, "run_lockbench", fake_run_lockbench)
    output = tmp_path / "calibrated.json"
    code, _ = run_cli(
        capsys, "lockbench", "--smoke", "--calibrate", "3", "--output", str(output),
    )
    assert code == 0
    import json

    document = json.loads(output.read_text())
    timing = document["scenarios"][0]["timing"]
    assert timing["locks_per_sec"] == 500.0  # slowest of the three runs
    assert timing["acquire_p99_ms"] == 3.0  # largest of the three runs
    assert calls == [1, 1, 1]


# --------------------------------------------------------------------------- #
# observability (run --snapshot / --trace)
# --------------------------------------------------------------------------- #
def test_run_trace_flag_writes_a_sim_chrome_trace(capsys, tmp_path):
    import json

    trace_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "run", "dag", "star:9", "heavy:2", "--trace", str(trace_path),
    )
    assert code == 0
    assert "trace events" in out
    document = json.loads(trace_path.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["source"] == "sim:dag-star-n9-heavy"
    assert document["traceEvents"], "a heavy cell must emit trace events"
    phases = {event["ph"] for event in document["traceEvents"]}
    assert "X" in phases  # waiting / critical_section spans made it through


def test_run_sim_snapshot_and_trace_are_deterministic(capsys, tmp_path):
    import json

    spec_path = tmp_path / "cell.json"
    code, _ = run_cli(
        capsys, "run", "dag", "star:9", "heavy:2",
        "--save-spec", str(spec_path), "--print-spec",
    )
    assert code == 0

    def probe(tag: str):
        snapshot = tmp_path / f"snap_{tag}.json"
        trace = tmp_path / f"trace_{tag}.json"
        code, _ = run_cli(
            capsys, "run", "--spec", str(spec_path),
            "--snapshot", str(snapshot), "--trace", str(trace),
        )
        assert code == 0
        return snapshot.read_bytes(), trace.read_bytes()

    first, second = probe("a"), probe("b")
    assert first == second  # same spec, byte-identical documents
    snapshot = json.loads(first[0])
    assert snapshot["schema"] == "obs-snapshot/v1"
    assert snapshot["source"] == "sim:dag-star-n9-heavy"
    assert snapshot["registry"]["metrics"]["sim.processed_events"]["value"] > 0
    assert snapshot["entries"] > 0


def test_run_snapshot_prints_the_table_as_well_as_writing_the_file(capsys, tmp_path):
    import json

    snapshot_path = tmp_path / "snap.json"
    code, out = run_cli(
        capsys, "run", "dag", "star:9", "heavy:2", "--snapshot", str(snapshot_path),
    )
    assert code == 0
    assert "repro run: dag-star-n9-heavy (seed 0)" in out
    assert "entry order sha256" in out
    assert f"Wrote {snapshot_path}" in out
    snapshot = json.loads(snapshot_path.read_text())
    assert snapshot["source"] == "sim:dag-star-n9-heavy"
    assert snapshot["registry"]["enabled"] is True


def test_lockbench_trace_flag_writes_a_chrome_trace(capsys, tmp_path, monkeypatch):
    import json

    monkeypatch.setattr(lockbench_module, "lockbench_matrix", tiny_smoke_cells)
    trace_path = tmp_path / "trace.json"
    code, out = run_cli(capsys, "lockbench", "--smoke", "--trace", str(trace_path))
    assert code == 0
    assert "trace events" in out
    document = json.loads(trace_path.read_text())
    assert document["otherData"]["source"] == "lockbench"
    assert document["otherData"]["scenarios"] == ["unix-s2-c5-k3-o2"]
    assert any(event["ph"] == "X" for event in document["traceEvents"])


def test_lockbench_trace_rejects_calibrate(capsys, tmp_path):
    code, _ = run_cli(
        capsys, "lockbench", "--smoke", "--calibrate", "2",
        "--trace", str(tmp_path / "trace.json"),
    )
    assert code == 2


# --------------------------------------------------------------------------- #
# the parser surface and the refusal tables
# --------------------------------------------------------------------------- #
TOPOLOGIES = ("line", "star", "radiating-star", "balanced-tree", "random")
ALGORITHMS = (
    "centralized", "lamport", "ricart-agrawala", "carvalho-roucairol",
    "suzuki-kasami", "singhal", "maekawa", "raymond", "dag",
)
PROFILES = (
    "crash-churn", "crash-holder", "crash-recover", "drop1", "drop5",
    "lose-privilege", "lose-request", "partition-heal", "worker-crash",
)
START_METHODS = ("fork", "spawn", "forkserver")

#: Per verb, every option (or positional) with its default and choices, as
#: recorded at a4097a8 (minus the ``--node-backend`` of run, bench and sweep,
#: the ``obs`` verb — now ``run --snapshot`` — and bench's ``--seed-baseline``):
#: a refactor of the CLI may move code, not flags.
PARSER_SURFACE = {
    "figure2": [],
    "figure6": [],
    "bounds": [
        ("--n", 17, None),
        ("--topology", "star", TOPOLOGIES),
        ("--seed", 0, None),
    ],
    "compare": [
        ("--n", 17, None),
        ("--topology", "star", TOPOLOGIES),
        ("--token-holder", None, None),
        ("--requests", 60, None),
        ("--mean-interarrival", 3.0, None),
        ("--seed", 0, None),
        ("--algorithms", None, ALGORITHMS),
    ],
    "average": [
        ("--sizes", [5, 9, 17, 33], None),
    ],
    "topology": [
        ("--kind", "star", TOPOLOGIES),
        ("--n", 9, None),
        ("--token-holder", None, None),
        ("--seed", 0, None),
    ],
    "algorithms": [
        ("--verbose", False, None),
    ],
    "run": [
        ("cell", None, None),
        ("--spec", None, None),
        ("--seed", 0, None),
        ("--no-metrics", False, None),
        ("--faults", None, PROFILES),
        ("--max-events", 5000000, None),
        ("--save-spec", None, None),
        ("--print-spec", False, None),
        ("--trace", None, None),
        ("--snapshot", None, None),
        ("--sessions", 16, None),
        ("--session-ops", 5, None),
        ("--keys", 8, None),
    ],
    "bench": [
        ("--smoke", False, None),
        ("--large", False, None),
        ("--xlarge", False, None),
        ("--xxlarge", False, None),
        ("--xxxlarge", False, None),
        ("--setup-only", False, None),
        ("--budget-seconds", None, None),
        ("--baselines", False, None),
        ("--faults", False, None),
        ("--calibrate", None, None),
        ("--profile", False, None),
        ("--repeat", 3, None),
        ("--output", None, None),
        ("--check", None, None),
        ("--tolerance", 0.2, None),
    ],
    "sweep": [
        ("--smoke", False, None),
        ("--large", False, None),
        ("--xlarge", False, None),
        ("--xxlarge", False, None),
        ("--faults", False, None),
        ("--workers", 2, None),
        ("--timeout", None, None),
        ("--start-method", None, START_METHODS),
        ("--algorithms", None, ALGORITHMS),
        ("--output", None, None),
        ("--deterministic-output", None, None),
        ("--report", None, None),
        ("--export-specs", None, None),
        ("--from-specs", None, None),
        ("--merge", None, None),
        ("--no-tables", False, None),
    ],
    "lockbench": [
        ("--smoke", False, None),
        ("--faults", False, None),
        ("--calibrate", None, None),
        ("--check", None, None),
        ("--tolerance", 0.5, None),
        ("--latency-tolerance", 3.0, None),
        ("--output", None, None),
        ("--trace", None, None),
    ],
}


def test_parser_surface_is_unchanged():
    import argparse

    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {}
    for verb, sub in subparsers.choices.items():
        surface[verb] = [
            (
                (action.option_strings or [action.dest])[0],
                action.default,
                tuple(action.choices) if action.choices is not None else None,
            )
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        # One spelling per option: no aliases hide behind the first string.
        assert all(len(action.option_strings) <= 1 for action in sub._actions
                   if not isinstance(action, argparse._HelpAction))
    assert surface == PARSER_SURFACE


def test_selected_tier_reads_the_tier_flags():
    from repro.cli import selected_tier

    parser = build_parser()
    assert selected_tier(parser.parse_args(["bench"])) == "default"
    for verb, tiers in (
        ("bench", ("smoke", "large", "xlarge", "xxlarge", "xxxlarge")),
        ("sweep", ("smoke", "large", "xlarge", "xxlarge")),
        ("lockbench", ("smoke",)),
    ):
        for tier in tiers:
            assert selected_tier(parser.parse_args([verb, f"--{tier}"])) == tier
            assert tier in {rung.tier for rung in cells.TIERS}


def test_every_conflict_row_names_real_flags_of_its_verb():
    import argparse

    from repro.cli import _BAD_VALUES, _CONFLICTS

    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    dests = {
        verb: {action.dest for action in sub._actions}
        for verb, sub in subparsers.choices.items()
    }
    for verb, mode, offending, message in _CONFLICTS:
        for flag in (mode, *offending):
            # `sweep --from-specs` lists every tier flag, bench-only ones too.
            if verb == "sweep" and flag == "xxxlarge":
                continue
            assert flag.lstrip("!") in dests[verb], (verb, flag)
        assert message and not message.startswith("error:")
    for verbs, flag, _is_bad, message in _BAD_VALUES:
        for verb in verbs:
            assert flag in dests[verb], (verb, flag)
        assert "{" in message


def test_lockbench_refuses_bad_check_and_calibrate_before_running(capsys, monkeypatch):
    """`repro bench` answered both with a one-line error and exit 2; at the
    parent `repro lockbench` ran the whole matrix and then died with a
    FileNotFoundError (missing --check file) or a ValueError (--calibrate 0)
    traceback."""
    def unreachable(**_kwargs):
        raise AssertionError("the matrix must not run")

    monkeypatch.setattr(lockbench_module, "run_lockbench", unreachable)
    assert main(["lockbench", "--smoke", "--check", "/nonexistent/missing.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --check file '/nonexistent/missing.json' does not exist\n"
    assert main(["lockbench", "--calibrate", "0"]) == 2
    assert capsys.readouterr().err == "error: --calibrate needs at least 1 run, got 0\n"
    # The same two rows guard `repro bench`.
    assert main(["bench", "--smoke", "--check", "/nonexistent/missing.json"]) == 2
    assert "does not exist" in capsys.readouterr().err
