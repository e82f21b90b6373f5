"""Throughput benchmark harness for the simulation core.

This package measures end-to-end simulation throughput (engine events per
wall-clock second) over a standard scenario matrix, writes the
``BENCH_throughput.json`` regression record, and checks that the optimized
core still replays the seed engine's event order exactly.  See
``benchmarks/README.md`` for the file format and the CLI entry point
(``repro bench``).
"""

from repro.bench.baselines import (
    BASELINE_ALGORITHMS,
    baseline_default_matrix,
    baseline_smoke_matrix,
    run_baseline_benchmark,
)
from repro.bench.faults import (
    DEGRADATION_ALGORITHMS,
    DEGRADATION_PROFILES,
    default_fault_matrix,
    fault_cell,
    recovery_matrix,
    run_fault_benchmark,
    run_fault_scenario,
    smoke_fault_matrix,
)
from repro.bench.setup_cost import (
    construction_matrix,
    run_setup_benchmark,
    run_setup_scenario,
)
from repro.bench.throughput import (
    ACCEPTANCE_SCENARIO,
    STREAMING_NODE_THRESHOLD,
    XXLARGE_HEAVY_ROUNDS,
    BenchCell,
    bench_cell,
    bench_workload_spec,
    default_matrix,
    determinism_fingerprint,
    fast_path_consistent,
    large_matrix,
    run_benchmark,
    run_cell,
    smoke_matrix,
    xlarge_matrix,
    xxlarge_matrix,
    xxxlarge_matrix,
)

__all__ = [
    "ACCEPTANCE_SCENARIO",
    "STREAMING_NODE_THRESHOLD",
    "XXLARGE_HEAVY_ROUNDS",
    "BASELINE_ALGORITHMS",
    "DEGRADATION_ALGORITHMS",
    "DEGRADATION_PROFILES",
    "BenchCell",
    "baseline_default_matrix",
    "baseline_smoke_matrix",
    "bench_cell",
    "bench_workload_spec",
    "construction_matrix",
    "default_fault_matrix",
    "default_matrix",
    "determinism_fingerprint",
    "fast_path_consistent",
    "fault_cell",
    "large_matrix",
    "recovery_matrix",
    "run_baseline_benchmark",
    "run_benchmark",
    "run_fault_benchmark",
    "run_cell",
    "run_fault_scenario",
    "run_setup_benchmark",
    "run_setup_scenario",
    "smoke_fault_matrix",
    "smoke_matrix",
    "xlarge_matrix",
    "xxlarge_matrix",
    "xxxlarge_matrix",
]
