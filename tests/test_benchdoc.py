"""One table-driven suite for the four committed benchmark documents.

Every ``BENCH_*.json`` is held to its :class:`repro.benchdoc.GateSpec` by the
same ``merge`` / ``check`` code, so the tests are written once against the
gate tables and run over all four committed files: whatever a table lists is
shown to be gated, and nothing else is.
"""

from __future__ import annotations

import copy
import re
from pathlib import Path

import pytest

from repro import benchdoc
from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]

COMMITTED = {
    "BENCH_throughput.json": benchdoc.THROUGHPUT,
    "BENCH_baselines.json": benchdoc.BASELINES,
    "BENCH_faults.json": benchdoc.FAULTS,
    "BENCH_runtime.json": benchdoc.RUNTIME,
}

#: The CI gates' loosest arguments; the perturbations below clear them.
TOLERANCE = 0.8
LATENCY_TOLERANCE = 3.0


@pytest.fixture(params=sorted(COMMITTED))
def committed(request):
    """``(gate, document)`` for one committed file."""
    return COMMITTED[request.param], benchdoc.load(str(ROOT / request.param))


def holder(row, path):
    """``(dict, key)`` addressing a dotted path, or ``None`` if a block is absent."""
    *blocks, leaf = path.split(".")
    for key in blocks:
        row = row.get(key)
        if row is None:
            return None
    return row, leaf


def perturbed(document, path, change):
    """A copy of ``document`` with ``path`` changed in the first row that can
    carry it (its parent block exists, and it has a value if any row has one);
    returns ``(copy, row name)``."""
    document = copy.deepcopy(document)
    held = [(row, *holder(row, path)) for row in document["scenarios"] if holder(row, path)]
    valued = [entry for entry in held if entry[1].get(entry[2]) is not None]
    row, block, leaf = (valued or held)[0]
    block[leaf] = change(block.get(leaf))
    return document, row["scenario"]


def different(value):
    if value is None:
        return "drifted"
    return value + "x" if isinstance(value, str) else value + 1


def gated_paths(gate):
    return (
        [(path, different) for path in gate.exact]
        + [(path, lambda value: value * 0.01) for path in gate.floors]
        + [(path, lambda value: value * 100) for path in gate.ceilings]
        + [(path, lambda value: 2) for path in gate.must_be_zero]
    )


# --------------------------------------------------------------------------- #
# (a) + (b): the gate
# --------------------------------------------------------------------------- #
def test_committed_document_gates_green_against_itself(committed):
    gate, document = committed
    rows = document["scenarios"]
    assert benchdoc.check(gate, rows, document, tolerance=0.0) == ([], len(rows))


def test_every_listed_field_is_gated_and_nothing_else_fails(committed):
    gate, document = committed
    for path, change in gated_paths(gate):
        fresh, name = perturbed(document, path, change)
        problems, compared = benchdoc.check(
            gate,
            fresh["scenarios"],
            document,
            tolerance=TOLERANCE,
            latency_tolerance=LATENCY_TOLERANCE,
        )
        assert compared == len(document["scenarios"])
        assert len(problems) == 1, (path, problems)
        assert problems[0].startswith(f"{name}: {path} "), problems


def test_a_one_sided_block_is_one_problem():
    document = benchdoc.load(str(ROOT / "BENCH_faults.json"))
    fresh = copy.deepcopy(document)
    row = next(row for row in fresh["scenarios"] if "recovery" in row)
    del row["recovery"]
    problems, _ = benchdoc.check(
        benchdoc.FAULTS, fresh["scenarios"], document, tolerance=TOLERANCE
    )
    assert problems == [
        f"{row['scenario']}: recovery section disappeared relative to the "
        "committed document"
    ]


def test_a_gate_that_compared_nothing_has_not_passed(committed):
    gate, document = committed
    rows = document["scenarios"]
    # The wrong committed document: rejected by schema, whatever its rows say.
    for other_name, other_gate in COMMITTED.items():
        if other_gate.schema != gate.schema:
            other = benchdoc.load(str(ROOT / other_name))
            problems, compared = benchdoc.check(gate, rows, other, tolerance=1.0)
            assert compared == 0 and len(problems) == 1
            assert repr(other_gate.schema) in problems[0] and "schema" in problems[0]
    # The right schema but no row in common.
    renamed = [dict(row, scenario="new-" + row["scenario"]) for row in rows]
    problems, compared = benchdoc.check(gate, renamed, document, tolerance=1.0)
    assert compared == 0 and len(problems) == 1 and "0 rows compared" in problems[0]
    # Rows merely absent from the committed file (an additive tier) are skipped.
    assert benchdoc.check(gate, renamed + rows[:1], document, tolerance=0.0) == ([], 1)


def test_must_be_zero_needs_no_committed_reference():
    document = benchdoc.load(str(ROOT / "BENCH_runtime.json"))
    row = dict(document["scenarios"][0], scenario="brand-new", exclusion_violations=1)
    problems, _ = benchdoc.check(
        benchdoc.RUNTIME, [row] + document["scenarios"], document, tolerance=0.0
    )
    assert len(problems) == 1 and problems[0].startswith("brand-new: exclusion_violations ")


# --------------------------------------------------------------------------- #
# (c): the merge
# --------------------------------------------------------------------------- #
def test_merge_raises_on_drift_in_deterministic_fields(committed):
    gate, document = committed
    for path in gate.exact + gate.must_be_zero:
        drifted, name = perturbed(document, path, different)
        with pytest.raises(ValueError, match=re.escape(f"{name}: {path} ")):
            benchdoc.merge(gate, [document, drifted])


def test_merge_raises_on_different_matrices(committed):
    gate, document = committed
    shorter = dict(document, scenarios=document["scenarios"][1:])
    with pytest.raises(ValueError, match="different scenario matrices"):
        benchdoc.merge(gate, [document, shorter])
    shuffled = dict(document, scenarios=document["scenarios"][::-1])
    with pytest.raises(ValueError, match="scenario order mismatch"):
        benchdoc.merge(gate, [document, shuffled])
    with pytest.raises(ValueError, match="at least one"):
        benchdoc.merge(gate, [])


def test_merge_keeps_the_worst_run_of_every_wall_clock_field(committed):
    gate, document = committed
    pristine = copy.deepcopy(document)
    for path, carried in gate.floors.items():
        slow, name = perturbed(document, path, lambda value: value / 2)
        slow_row = next(row for row in slow["scenarios"] if row["scenario"] == name)
        for moved in carried:
            block, leaf = holder(slow_row, moved)
            block[leaf] += 1
        for order in ([document, slow], [slow, document]):
            merged = benchdoc.merge(gate, order)
            # The slower run wins with everything that rides along with it;
            # every other row is untouched.
            assert merged["scenarios"] == slow["scenarios"]
    for path in gate.ceilings:
        laggy, _ = perturbed(document, path, lambda value: value * 2)
        for order in ([document, laggy], [laggy, document]):
            assert benchdoc.merge(gate, order)["scenarios"] == laggy["scenarios"]
    assert benchdoc.merge(gate, [document, document, document]) == document
    assert document == pristine  # inputs are never modified


def test_calibrate_runs_the_matrix_n_times_and_merges(committed, capsys):
    gate, document = committed
    path = next(iter(gate.floors))
    slow, _ = perturbed(document, path, lambda value: value / 2)
    seen = []

    def run_once(index):
        seen.append(index)
        return slow if index == 1 else document

    merged = benchdoc.calibrate(gate, run_once, 3, verbose=True)
    assert seen == [0, 1, 2]
    assert merged["scenarios"] == slow["scenarios"]
    assert "calibration run 3/3" in capsys.readouterr().out
    with pytest.raises(ValueError, match="at least 1 run"):
        benchdoc.calibrate(gate, run_once, 0)


# --------------------------------------------------------------------------- #
# (d): one deterministic projection, one writer, one gate behind the CLI
# --------------------------------------------------------------------------- #
def test_fault_bench_cli_is_deterministic_canonical_and_gated(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    # Tolerance 1.0 puts the rate floor at 0: tier-1 gates the exact fields.
    gate_args = ["--check", str(ROOT / "BENCH_faults.json"), "--tolerance", "1.0"]
    assert main(["bench", "--faults", "--smoke", "--output", str(first)] + gate_args) == 0
    out = capsys.readouterr().out
    smoke_rows = len(benchdoc.load(str(first))["scenarios"])
    assert f"passed: {smoke_rows} scenario(s) compared" in out
    assert main(["bench", "--faults", "--smoke", "--output", str(second)]) == 0
    capsys.readouterr()

    projections = [
        benchdoc.canonical_json(benchdoc.deterministic(benchdoc.load(str(path))))
        for path in (first, second)
    ]
    assert projections[0] == projections[1]
    assert '"timing"' not in projections[0] and '"generated_by"' not in projections[0]
    # The file on disk is the canonical form (sorted keys, trailing newline).
    assert first.read_text() == benchdoc.canonical_json(benchdoc.load(str(first)))

    # The vacuous pass this gate used to give: a fault run "checked" against
    # the throughput document compared zero rows and exited 0.
    wrong = ["--check", str(ROOT / "BENCH_throughput.json")]
    assert main(["bench", "--faults", "--smoke"] + wrong) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "schema 'bench-throughput/v1'" in out
