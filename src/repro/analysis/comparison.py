"""Paper-vs-measured comparison rows.

EXPERIMENTS.md reports, for every table and figure, the value the paper quotes
and the value this reproduction measures.  These helpers compute those rows so
the benchmarks and the documentation never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.theory import upper_bound_messages
from repro.workload.driver import ExperimentResult


@dataclass(frozen=True)
class ComparisonRow:
    """One paper-vs-measured comparison entry.

    Attributes:
        label: what is being compared (algorithm or experiment label).
        paper_value: the value stated (or implied) by the paper.
        measured_value: the value this reproduction measured.
        unit: unit of both values (messages, messages/entry, time units, ...).
        within_bound: for bound-type paper values, whether the measurement
            respects the bound; for exact paper values, whether the measurement
            matches to within ``tolerance``.
    """

    label: str
    paper_value: float
    measured_value: float
    unit: str
    within_bound: bool

    def as_row(self) -> Dict[str, object]:
        """Row for :func:`repro.analysis.report.format_table`."""
        return {
            "experiment": self.label,
            "paper": round(self.paper_value, 3),
            "measured": round(self.measured_value, 3),
            "unit": self.unit,
            "ok": "yes" if self.within_bound else "NO",
        }


def compare_measured_to_theory(
    results: Sequence[ExperimentResult],
    *,
    n: int,
    diameter: int,
) -> List[ComparisonRow]:
    """Compare worst-case measurements against the Section 6.1 upper bounds.

    Each result's ``messages_per_entry`` is compared against the paper's upper
    bound for that algorithm at the given system size and diameter.
    """
    rows = []
    for result in results:
        bound = upper_bound_messages(result.algorithm, n=n, diameter=diameter)
        rows.append(
            ComparisonRow(
                label=result.algorithm,
                paper_value=bound,
                measured_value=result.messages_per_entry,
                unit="messages/entry",
                within_bound=result.messages_per_entry <= bound + 1e-9,
            )
        )
    return rows

