"""Sharded multi-process experiment sweeps.

This package turns the paper's algorithm comparison into a scalable harness:
the full matrix (9 algorithms x topology families x node counts x workload
tiers, :mod:`repro.sweep.matrix`) is fanned out over a pool of child
processes (:mod:`repro.sweep.runner`), with each scenario executed in its own
process (:mod:`repro.sweep.worker`) for crash isolation and true per-scenario
peak-RSS measurement.  Merged results are deterministic regardless of worker
count or scheduling; ``repro sweep`` is the CLI entry point.
"""

from repro.sweep.matrix import (
    FAULT_TIER_PROFILES,
    LARGE_TIER_ALGORITHMS,
    SPEC_SHARD_SCHEMA,
    SWEEP_ALGORITHMS,
    XXLARGE_TIER_ALGORITHMS,
    SweepScenario,
    build_sweep_topology,
    build_sweep_workload,
    default_sweep_matrix,
    fault_sweep_matrix,
    large_sweep_matrix,
    load_spec_shard,
    scenario_seed,
    smoke_sweep_matrix,
    sweep_workload_spec,
    validate_algorithms,
    write_spec_shard,
    xlarge_sweep_matrix,
    xxlarge_sweep_matrix,
)
from repro.sweep.runner import (
    SCHEMA,
    canonical_json,
    deterministic_document,
    merge_documents,
    run_sweep,
    write_document,
)
from repro.sweep.worker import (
    CRASH_EXIT_CODE,
    execute_scenario,
)

__all__ = [
    "FAULT_TIER_PROFILES",
    "LARGE_TIER_ALGORITHMS",
    "SPEC_SHARD_SCHEMA",
    "SWEEP_ALGORITHMS",
    "XXLARGE_TIER_ALGORITHMS",
    "SweepScenario",
    "build_sweep_topology",
    "build_sweep_workload",
    "default_sweep_matrix",
    "fault_sweep_matrix",
    "large_sweep_matrix",
    "load_spec_shard",
    "scenario_seed",
    "smoke_sweep_matrix",
    "sweep_workload_spec",
    "validate_algorithms",
    "write_spec_shard",
    "xlarge_sweep_matrix",
    "xxlarge_sweep_matrix",
    "SCHEMA",
    "canonical_json",
    "deterministic_document",
    "merge_documents",
    "run_sweep",
    "write_document",
    "CRASH_EXIT_CODE",
    "execute_scenario",
]
