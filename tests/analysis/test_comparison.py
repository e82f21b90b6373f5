"""Unit tests for paper-vs-measured comparison rows."""

from __future__ import annotations

from repro.analysis.comparison import ComparisonRow, compare_measured_to_theory
from repro.topology import line, star
from repro.workload import Workload
from repro.workload.scenarios import compare_algorithms


def test_compare_upper_bound():
    """A measurement equal to the paper's bound is inside it; one above is not."""
    results = compare_algorithms(line(4, token_holder=1), Workload.single(4), algorithms=["dag"])
    assert results[0].messages_per_entry == 4.0
    at_bound, above = (
        compare_measured_to_theory(results, n=4, diameter=diameter)[0] for diameter in (3, 2)
    )
    assert (at_bound.paper_value, at_bound.within_bound) == (4, True)
    assert (above.paper_value, above.within_bound) == (3, False)


def test_as_row_rendering():
    row = ComparisonRow("avg messages", 2.5, 2.5, unit="msgs", within_bound=True).as_row()
    assert row["experiment"] == "avg messages"
    assert row["ok"] == "yes"
    assert row["unit"] == "msgs"


def test_measured_results_respect_section_6_1_bounds_on_the_star():
    """Single-request runs on the star stay within every paper upper bound."""
    topology = star(9, token_holder=2)
    results = compare_algorithms(topology, Workload.single(7))
    rows = compare_measured_to_theory(results, n=9, diameter=2)
    assert len(rows) == len(results)
    assert all(row.within_bound for row in rows), [
        (row.label, row.paper_value, row.measured_value) for row in rows
    ]


def test_dag_row_uses_diameter_plus_one():
    topology = star(9, token_holder=2)
    results = compare_algorithms(topology, Workload.single(7), algorithms=["dag"])
    row = compare_measured_to_theory(results, n=9, diameter=2)[0]
    assert row.paper_value == 3
    assert row.measured_value == 3
    assert row.within_bound
