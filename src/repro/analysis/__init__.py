"""Analytic bounds from Chapter 6 and measured-vs-theory comparison tools."""

from repro.analysis.theory import (
    AlgorithmBounds,
    average_messages_centralized_star,
    average_messages_dag_star,
    storage_overhead_table,
    upper_bound_table,
    upper_bound_messages,
)
from repro.analysis.comparison import ComparisonRow, compare_measured_to_theory
from repro.analysis.report import format_table
from repro.analysis.sweep import (
    condition_rows,
    format_sweep_tables,
    sweep_conditions,
    sweep_summary_row,
)

__all__ = [
    "AlgorithmBounds",
    "upper_bound_messages",
    "upper_bound_table",
    "average_messages_dag_star",
    "average_messages_centralized_star",
    "storage_overhead_table",
    "ComparisonRow",
    "compare_measured_to_theory",
    "format_table",
    "condition_rows",
    "format_sweep_tables",
    "sweep_conditions",
    "sweep_summary_row",
]
