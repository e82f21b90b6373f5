"""Unit tests for the Chapter 6 closed-form bounds."""

from __future__ import annotations

import math

import pytest

from repro.analysis.theory import (
    average_messages_centralized_star,
    average_messages_dag_star,
    storage_overhead_table,
    upper_bound_messages,
    upper_bound_table,
)


def test_section_6_1_upper_bounds_for_n_ten():
    n, d = 10, 2  # centralized (star) topology
    assert upper_bound_messages("lamport", n=n, diameter=d) == 27
    assert upper_bound_messages("ricart-agrawala", n=n, diameter=d) == 18
    assert upper_bound_messages("carvalho-roucairol", n=n, diameter=d) == 18
    assert upper_bound_messages("suzuki-kasami", n=n, diameter=d) == 10
    assert upper_bound_messages("singhal", n=n, diameter=d) == 10
    assert upper_bound_messages("maekawa", n=n, diameter=d) == pytest.approx(7 * math.sqrt(10))
    assert upper_bound_messages("raymond", n=n, diameter=d) == 4
    assert upper_bound_messages("centralized", n=n, diameter=d) == 3
    assert upper_bound_messages("dag", n=n, diameter=d) == 3


def test_dag_upper_bound_is_diameter_plus_one():
    assert upper_bound_messages("dag", n=6, diameter=5) == 6  # straight line: N
    assert upper_bound_messages("dag", n=100, diameter=2) == 3  # star: 3


def test_unknown_algorithm_rejected():
    with pytest.raises(KeyError):
        upper_bound_messages("quantum-mutex", n=4, diameter=2)


def test_upper_bound_table_lists_every_algorithm_once():
    table = upper_bound_table(n=16, diameter=2)
    names = [row.name for row in table]
    assert len(names) == len(set(names)) == 9
    dag_row = next(row for row in table if row.name == "dag")
    assert dag_row.upper_bound == 3
    assert dag_row.sync_delay == 1


def test_average_bound_formulas_of_section_6_2():
    assert average_messages_dag_star(4) == pytest.approx(3 - 5 / 4 + 2 / 16)
    assert average_messages_centralized_star(4) == pytest.approx(3 - 3 / 4)


def test_average_bounds_approach_three_for_large_n():
    assert average_messages_dag_star(10_000) == pytest.approx(3.0, abs=1e-3)
    assert average_messages_centralized_star(10_000) == pytest.approx(3.0, abs=1e-3)


def test_dag_average_is_below_centralized_average_for_all_n():
    """The paper's point: the DAG algorithm is never worse on average."""
    for n in range(2, 200):
        assert average_messages_dag_star(n) <= average_messages_centralized_star(n) + 1e-12


def test_average_bound_rejects_invalid_n():
    with pytest.raises(ValueError):
        average_messages_dag_star(0)
    with pytest.raises(ValueError):
        average_messages_centralized_star(-1)


def test_sync_delay_bounds_of_section_6_3():
    delays = {row.name: row.sync_delay for row in upper_bound_table(n=16, diameter=5)}
    assert delays["dag"] == 1.0
    assert delays["suzuki-kasami"] == 1.0
    assert delays["singhal"] == 1.0
    assert delays["centralized"] == 2.0
    assert delays["raymond"] == 5.0


def test_storage_overhead_table_of_section_6_4():
    table = storage_overhead_table(16)
    assert table["dag"]["per_node_fields"] == 3
    assert table["dag"]["scales_with_n"] is False
    assert table["dag"]["token_payload"] == 0
    # Every other algorithm keeps per-node or token state that grows with N.
    for name, row in table.items():
        if name == "dag":
            continue
        assert row["scales_with_n"] is True
    assert table["suzuki-kasami"]["token_payload"] == 32
