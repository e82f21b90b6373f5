"""Throughput benchmark matrix over the eight baseline algorithms.

``repro bench`` historically measured only the DAG algorithm; the paper's
comparison, however, is against eight baselines, and the comparison sweeps
replay workloads through *their* message machinery too.  This module gives
every baseline the same regression treatment: a frozen scenario matrix
(:func:`repro.cells.baseline_matrix`) run with no metrics collector, a
committed ``BENCH_baselines.json`` reference, and the same CI gate (20%
events/sec tolerance, exact virtual-count comparison:
:data:`repro.benchdoc.BASELINES`).

The matrix is intentionally smaller than the DAG one — the broadcast
algorithms cost Θ(N) messages per entry, so their interesting size range ends
far below the DAG's 10k tier.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro import benchdoc
from repro.bench.throughput import run_cell, run_passes
from repro.cells import Cell, baseline_matrix


def run_baseline_benchmark(
    *,
    matrix: Optional[Sequence[Cell]] = None,
    repeat: int = 3,
    calibrate: Optional[int] = None,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the matrix and assemble the ``BENCH_baselines.json`` document.

    ``calibrate=N`` (``repro bench --baselines --calibrate N``) runs the
    matrix N times and keeps each scenario's minimum observed rate, annotated
    in the document's ``calibration`` field.
    """
    cells = list(matrix) if matrix is not None else baseline_matrix()

    def one_run(index: int) -> Dict[str, Any]:
        scenarios: List[Dict[str, Any]] = []
        for cell in cells:
            row = run_cell(cell, repeat=repeat)
            scenarios.append(row)
            if verbose:
                print(
                    f"{row['scenario']:<38} {row['events_per_sec']:>12,.0f} ev/s  "
                    f"{row['messages_per_entry']:>8.3f} msg/entry  "
                    f"wall {row['wall_seconds']:.3f}s"
                )
        return {
            "schema": benchdoc.BASELINES.schema,
            "generated_by": "repro bench --baselines",
            "repeat": repeat,
            "scenarios": scenarios,
        }

    return run_passes(
        benchdoc.BASELINES, one_run, calibrate=calibrate, repeat=repeat, verbose=verbose
    )
