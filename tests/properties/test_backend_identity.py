"""Backend identity: the columnar array core must be indistinguishable.

The compact backend stores DAG node state in flat array columns; the object
nodes are the always-tested reference implementation.  Which one a system
stands on is a fact of its topology's size, so this module forces each onto
the same small cells through the one seam there is (``forced_node_backend``
patches the threshold).  The contract pinned here — this is the gate, CI's
``cmp`` of two forced sweeps is gone with ``--node-backend``: the backend
changes how fast state is stored and touched, never *what happens*.  Entry
order, message counts, finish times, per-entry metrics, and — on
fault-injected runs — the complete fault summary including the fault-log
sha256 must match field-for-field across backends, with and without a
metrics collector, and so must every DAG row of the sweep's smoke matrix.

The fault replays use the same frozen star/heavy cell convention as the
committed fault benchmark (``repro bench --faults``), so a divergence here
is a divergence the committed documents would show too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import sweep_matrix
from repro.spec import FAULT_PROFILES, ExperimentSpec, TopologySpec, WorkloadSpec
from repro.sweep.worker import execute_scenario
from repro.workload.driver import ExperimentDriver

from ..conftest import forced_node_backend

#: The fault profiles the issue names for replay: seeded message loss, the
#: crash of the token holder (liveness lost, by design), and the crash
#: followed by token regeneration (the recovery path reorients NEXT/FOLLOW
#: scalars — the hardest state transition the compact columns must mirror).
REPLAY_PROFILES = ("drop1", "crash-holder", "crash-recover")


def _replay(node_backend, *, profile=None, n=50,
            kind="star", rounds=5, seed=0, collect_metrics=True):
    """Run one dag cell on the given backend; return its deterministic row.

    Everything in the returned dictionary is virtual-time truth — no wall
    clocks, no RSS — so two rows from different backends can be compared
    with plain ``==``.
    """
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind=kind, n=n),
        workload=WorkloadSpec(tier="heavy", rounds=rounds),
        seed=seed,
        collect_metrics=collect_metrics,
        faults=FAULT_PROFILES[profile] if profile is not None else None,
    )
    with forced_node_backend(node_backend):
        driver = ExperimentDriver.from_spec(spec)
    result = driver.run(max_events=50_000_000)
    # The system must stand on the backend that was forced — the size rule
    # picking the other one would make the comparison below vacuous.
    assert driver.system.node_backend == node_backend
    return {
        "entries": result.completed_entries,
        "messages": result.total_messages,
        "messages_by_type": result.messages_by_type,
        "entry_order": tuple(result.entry_order),
        "finished_at": round(result.finished_at, 9),
        "mean_waiting_time": result.mean_waiting_time,
        "max_sync_delay": result.max_sync_delay,
        "faults": result.fault_summary,
    }


@pytest.mark.parametrize("profile", REPLAY_PROFILES)
def test_fault_profiles_replay_identically_across_backends(profile):
    """Satellite contract: fault replays are backend-invariant.

    The profile's entire injected fault stream (the sha256 of the fault
    log), its counts, the recovery block, and every workload metric must be
    identical whether node state lives in objects or array columns.
    """
    reference = _replay("object", profile=profile)
    compact = _replay("compact", profile=profile)
    assert compact == reference
    summary = compact["faults"]
    assert summary is not None
    assert summary["fault_log_sha256"] == reference["faults"]["fault_log_sha256"]
    # The comparison must not be vacuous: each profile leaves profile-shaped
    # evidence (a crash is not a message fault, so it shows up as a crashed
    # node rather than in the fault log — same convention as BENCH_faults).
    if profile == "drop1":
        assert summary["total_faults"] > 0
    else:
        assert summary["crashed_nodes"]
    if profile == "crash-recover":
        recovery = summary["recovery"]
        assert recovery["time_to_liveness"] is not None


def test_fault_free_replay_identical_across_backends():
    """Observed and fast delivery: one object reference each."""
    for collect_metrics in (True, False):
        reference = _replay("object", collect_metrics=collect_metrics)
        compact = _replay("compact", collect_metrics=collect_metrics)
        assert compact == reference, (
            f"backend divergence under collect_metrics={collect_metrics}"
        )


@pytest.mark.parametrize(
    "cell", sweep_matrix("smoke", algorithms=["dag"]), ids=lambda cell: cell.name
)
def test_sweep_smoke_rows_identical_across_backends(cell):
    """What CI's ``backend-identity`` step compared with ``cmp``: every DAG
    cell of the sweep's smoke matrix, its whole row minus ``timing``."""
    rows = {}
    for backend in ("object", "compact"):
        with forced_node_backend(backend):
            rows[backend] = execute_scenario(cell)
        assert rows[backend].pop("timing")["node_backend"] == backend
    assert rows["compact"] == rows["object"]
    assert rows["object"]["status"] == "ok" and rows["object"]["entries"] > 0


@given(
    kind=st.sampled_from(["star", "tree", "line", "random"]),
    n=st.integers(min_value=3, max_value=40),
    rounds=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=15, deadline=None)
def test_backend_identity_property(kind, n, rounds, seed):
    """Randomised topologies, sizes, and seeds: identical outcomes."""
    reference = _replay("object", kind=kind, n=n, rounds=rounds, seed=seed)
    compact = _replay("compact", kind=kind, n=n, rounds=rounds, seed=seed)
    assert compact == reference
