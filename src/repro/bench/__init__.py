"""Throughput benchmark harness for the simulation core.

This package measures end-to-end simulation throughput (engine events per
wall-clock second) over a standard scenario matrix, writes the
``BENCH_throughput.json`` regression record, and checks that the core
still replays the committed determinism fingerprint exactly.  See
``benchmarks/README.md`` for the file format and the CLI entry point
(``repro bench``).
"""

from repro.bench.baselines import run_baseline_benchmark
from repro.bench.faults import run_fault_benchmark, run_fault_scenario
from repro.bench.setup_cost import (
    construction_matrix,
    run_setup_benchmark,
    run_setup_scenario,
)
from repro.bench.throughput import (
    determinism_fingerprint,
    fast_path_consistent,
    run_benchmark,
    run_cell,
)
from repro.cells import (
    BASELINE_ALGORITHMS,
    DEGRADATION_PROFILES,
    Cell,
    baseline_matrix,
    bench_cell,
    bench_matrix,
    fault_cell,
    fault_matrix,
)

__all__ = [
    "BASELINE_ALGORITHMS",
    "DEGRADATION_PROFILES",
    "Cell",
    "baseline_matrix",
    "bench_cell",
    "bench_matrix",
    "construction_matrix",
    "determinism_fingerprint",
    "fast_path_consistent",
    "fault_cell",
    "fault_matrix",
    "run_baseline_benchmark",
    "run_benchmark",
    "run_fault_benchmark",
    "run_cell",
    "run_fault_scenario",
    "run_setup_benchmark",
    "run_setup_scenario",
]
