"""ExperimentDriver + FaultController integration and replay determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.sim.faults import FaultController, FaultInjectingNetwork
from repro.spec import (
    FAULT_PROFILES,
    ExperimentSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.cells import sweep_cell
from repro.sweep.worker import execute_scenario
from repro.workload.driver import ExperimentDriver


def fault_spec(algorithm="dag", profile="drop1", n=9, **overrides):
    base = ExperimentSpec(
        algorithm=algorithm,
        topology=TopologySpec(kind="star", n=n),
        workload=WorkloadSpec(tier="heavy"),
        faults=FAULT_PROFILES[profile],
    )
    return dataclasses.replace(base, **overrides) if overrides else base


def run_spec(spec):
    topology = spec.topology.build()
    workload = spec.workload.build(topology, seed=spec.seed)
    system = spec.build_system(topology)
    controller = FaultController(spec.faults, name=spec.name)
    driver = ExperimentDriver(system, workload, faults=controller)
    result = driver.run()
    return result, system


# --------------------------------------------------------------------------- #
# fault summary surface
# --------------------------------------------------------------------------- #
def test_fault_summary_reaches_the_result_and_its_row():
    result, _ = run_spec(fault_spec(profile="drop1"))
    summary = result.fault_summary
    assert summary is not None
    assert summary["total_faults"] == sum(
        summary["counts"][key]
        for key in (
            "dropped_messages",
            "suppressed_sends",
            "suppressed_deliveries",
            "fenced_messages",
            "partition_drops",
        )
    )
    assert len(summary["fault_log_sha256"]) == 64
    assert result.summary_row()["faults"] is summary


def test_fault_free_runs_carry_no_fault_summary():
    spec = fault_spec()
    plain = dataclasses.replace(spec, faults=None)
    driver = ExperimentDriver.from_spec(plain)
    result = driver.run()
    assert result.fault_summary is None
    assert "faults" not in result.summary_row()


def test_from_spec_wires_the_controller_automatically():
    driver = ExperimentDriver.from_spec(fault_spec(profile="lose-privilege"))
    assert driver.faults is not None
    result = driver.run()
    assert result.fault_summary["counts"]["dropped_messages"] == 1


def test_crashed_holder_starves_but_does_not_raise():
    result, system = run_spec(fault_spec(profile="crash-holder"))
    summary = result.fault_summary
    assert summary["crashed_nodes"]  # the holder was found and killed
    assert summary["unserved_nodes"] > 0  # liveness lost, run still completed
    crashed = set(summary["crashed_nodes"])
    assert crashed <= set(system.topology.nodes)


def test_requests_arriving_at_a_crashed_node_are_counted_lost():
    # Crash node 1 (the initial token holder) before its arrivals land:
    # every request arriving at it afterwards is recorded, not silently
    # swallowed.  Faults arm before the arrival front loads, so the t=0
    # crash claims an earlier sequence number than the t=0 arrivals.
    from repro.spec import CrashSpec, FaultSpec

    spec = fault_spec(
        faults=FaultSpec(crashes=(CrashSpec(node=1, time=0.0),))
    )
    result, _ = run_spec(spec)
    assert result.fault_summary["lost_requests"] > 0


# --------------------------------------------------------------------------- #
# recovery end to end
# --------------------------------------------------------------------------- #
def test_crash_recover_measures_time_to_liveness():
    result, _ = run_spec(fault_spec(profile="crash-recover"))
    recovery = result.fault_summary["recovery"]
    assert recovery["token_lost_at"] >= 25.0  # profile kills at t=25
    assert recovery["regenerated_at"] > recovery["token_lost_at"]
    assert recovery["time_to_liveness"] > 0
    assert recovery["new_holder"] not in result.fault_summary["crashed_nodes"]
    # Recovery restores liveness for every live node.
    assert result.fault_summary["unserved_nodes"] == 1  # just the dead one


def test_recovery_requires_the_fault_injecting_network():
    spec = fault_spec(profile="crash-recover")
    topology = spec.topology.build()
    workload = spec.workload.build(topology, seed=spec.seed)
    plain = dataclasses.replace(spec, faults=None)
    system = plain.build_system(topology)  # plain Network
    assert not isinstance(system.network, FaultInjectingNetwork)
    controller = FaultController(spec.faults, name=spec.name)
    with pytest.raises(Exception):
        ExperimentDriver(system, workload, faults=controller).run()


# --------------------------------------------------------------------------- #
# replay determinism
# --------------------------------------------------------------------------- #
def test_driver_replay_matches_the_sweep_worker_replay():
    # The sweep worker names the FaultController after the ExperimentSpec,
    # not the sweep row, precisely so a `repro run --spec` replay of an
    # exported shard injects the identical fault stream.
    scenario = sweep_cell("dag", "star", 9, "heavy", faults="drop5")
    row = execute_scenario(scenario)
    spec = scenario.experiment
    result, system = run_spec(spec)
    assert row["faults"]["fault_log_sha256"] == (
        result.fault_summary["fault_log_sha256"]
    )
    assert row["entries"] == result.completed_entries
    assert row["events"] == system.engine.processed_events


def test_different_fault_seeds_change_the_stream():
    import dataclasses as dc

    spec = fault_spec(profile="drop5")
    reseeded = dc.replace(
        spec, faults=dc.replace(spec.faults, seed=spec.faults.seed + 1)
    )
    first, _ = run_spec(spec)
    second, _ = run_spec(reseeded)
    assert (
        first.fault_summary["fault_log_sha256"]
        != second.fault_summary["fault_log_sha256"]
    )


def test_a_fault_replay_loaded_first_injects_the_same_stream():
    # ``_load_arrivals`` arms the controller before the arrivals, whoever
    # calls it, so loading first and then running replays the same faults
    # as a plain run: the arrivals load once and claim the same sequences.
    spec = fault_spec(profile="drop5")
    plain, plain_system = run_spec(spec)
    topology = spec.topology.build()
    workload = spec.workload.build(topology, seed=spec.seed)
    system = spec.build_system(topology)
    driver = ExperimentDriver(
        system, workload, faults=FaultController(spec.faults, name=spec.name)
    )
    driver._load_arrivals(system.engine)
    loaded = driver.run()
    assert loaded.fault_summary["fault_log_sha256"] == plain.fault_summary["fault_log_sha256"]
    assert loaded.entry_order == plain.entry_order
    assert system.engine.processed_events == plain_system.engine.processed_events
