"""Sharded multi-process experiment sweeps.

This package turns the paper's algorithm comparison into a scalable harness:
the full matrix (9 algorithms x topology families x node counts x workload
tiers, :func:`repro.cells.sweep_matrix`) is fanned out over a pool of child
processes (:mod:`repro.sweep.runner`), with each scenario executed in its own
process (:mod:`repro.sweep.worker`) for crash isolation and true per-scenario
peak-RSS measurement.  Merged results are deterministic regardless of worker
count or scheduling; ``repro sweep`` is the CLI entry point.
"""

from repro.cells import (
    FAULT_TIER_PROFILES,
    SPEC_SHARD_SCHEMA,
    SWEEP_ALGORITHMS,
    Cell,
    cell_from_spec,
    load_spec_shard,
    scenario_seed,
    sweep_cell,
    sweep_matrix,
    validate_algorithms,
    write_spec_shard,
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
    "SPEC_SHARD_SCHEMA",
    "SWEEP_ALGORITHMS",
    "Cell",
    "cell_from_spec",
    "load_spec_shard",
    "scenario_seed",
    "sweep_cell",
    "sweep_matrix",
    "validate_algorithms",
    "write_spec_shard",
    "SCHEMA",
    "canonical_json",
    "deterministic_document",
    "merge_documents",
    "run_sweep",
    "write_document",
    "CRASH_EXIT_CODE",
    "execute_scenario",
]
