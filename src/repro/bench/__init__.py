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
    BaselineScenarioResult,
    BaselineScenarioSpec,
    baseline_default_matrix,
    baseline_smoke_matrix,
    run_baseline_benchmark,
    run_baseline_scenario,
    run_calibrated_baseline_benchmark,
)
from repro.bench.faults import (
    DEGRADATION_ALGORITHMS,
    DEGRADATION_PROFILES,
    FAULT_BENCH_SCHEMA,
    FaultScenarioSpec,
    check_fault_baseline,
    default_fault_matrix,
    deterministic_fault_document,
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
    ScenarioResult,
    ScenarioSpec,
    bench_workload_spec,
    check_against_baseline,
    default_matrix,
    determinism_fingerprint,
    fast_path_consistent,
    large_matrix,
    min_merge_documents,
    run_benchmark,
    run_calibrated_benchmark,
    run_scenario,
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
    "BaselineScenarioResult",
    "BaselineScenarioSpec",
    "DEGRADATION_ALGORITHMS",
    "DEGRADATION_PROFILES",
    "FAULT_BENCH_SCHEMA",
    "FaultScenarioSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "baseline_default_matrix",
    "baseline_smoke_matrix",
    "bench_workload_spec",
    "check_against_baseline",
    "check_fault_baseline",
    "construction_matrix",
    "default_fault_matrix",
    "default_matrix",
    "deterministic_fault_document",
    "determinism_fingerprint",
    "fast_path_consistent",
    "large_matrix",
    "min_merge_documents",
    "recovery_matrix",
    "run_baseline_benchmark",
    "run_baseline_scenario",
    "run_calibrated_baseline_benchmark",
    "run_benchmark",
    "run_calibrated_benchmark",
    "run_fault_benchmark",
    "run_fault_scenario",
    "run_scenario",
    "run_setup_benchmark",
    "run_setup_scenario",
    "smoke_fault_matrix",
    "smoke_matrix",
    "xlarge_matrix",
    "xxlarge_matrix",
    "xxxlarge_matrix",
]
