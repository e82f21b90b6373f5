"""RuntimeSpec: the declarative bridge from ExperimentSpec names to the
networked runtime (same algorithm registry, same topology builders)."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.spec import (
    SOCKET_KINDS,
    FAULT_PROFILES,
    RuntimeFaultSpec,
    RuntimeSpec,
    ShardCrashSpec,
    TopologySpec,
)
from repro.topology import star


def test_defaults_and_name():
    spec = RuntimeSpec()
    assert spec.algorithm == "dag"
    assert spec.topology == TopologySpec(kind="star", n=8)
    assert spec.shards == 2
    assert spec.socket == "unix"
    assert spec.name == "dag-star-n8-s2-unix"


def test_round_trip_through_dict_and_json():
    spec = RuntimeSpec(
        topology=TopologySpec(kind="line", n=5), shards=4, socket="tcp"
    )
    assert RuntimeSpec.from_dict(spec.to_dict()) == spec
    assert RuntimeSpec.from_json(spec.canonical_json()) == spec


def test_file_round_trip(tmp_path):
    spec = RuntimeSpec(shards=3)
    path = tmp_path / "runtime.json"
    spec.save(path)
    assert RuntimeSpec.load(path) == spec


def test_canonical_json_is_stable():
    spec = RuntimeSpec()
    assert spec.canonical_json() == spec.canonical_json()
    assert '"schema"' in spec.canonical_json()


def test_validation_rejects_bad_fields():
    with pytest.raises(ExperimentError, match="'dag' algorithm only"):
        RuntimeSpec(algorithm="nope")
    with pytest.raises(ExperimentError, match="'dag' algorithm only"):
        RuntimeSpec(algorithm="lamport")
    with pytest.raises(ExperimentError, match="shards"):
        RuntimeSpec(shards=0)
    with pytest.raises(ExperimentError, match="socket"):
        RuntimeSpec(socket="carrier-pigeon")
    with pytest.raises(ExperimentError, match=">= 2 agent nodes"):
        RuntimeSpec(topology=TopologySpec(kind="star", n=1))
    assert SOCKET_KINDS == ("unix", "tcp")


def test_from_dict_rejects_foreign_schema_and_unknown_keys():
    spec = RuntimeSpec()
    tampered = spec.to_dict()
    tampered["schema"] = "runtime-spec/v9"
    with pytest.raises(ExperimentError, match="schema"):
        RuntimeSpec.from_dict(tampered)
    extra = spec.to_dict()
    extra["replicas"] = 3
    with pytest.raises(ExperimentError, match="unknown"):
        RuntimeSpec.from_dict(extra)


@pytest.mark.parametrize(
    "edit, spec_label, field",
    [
        (lambda doc: doc["faults"]["crashes"][0].pop("at"), "shard crash spec", "'at'"),
        (lambda doc: doc.update(shards="2"), "runtime spec", "'shards'"),
    ],
    ids=["shard-crash-missing-at", "shards-as-string"],
)
def test_from_dict_names_the_spec_and_field_of_malformed_input(edit, spec_label, field):
    spec = RuntimeSpec(
        shards=3, faults=RuntimeFaultSpec(crashes=(ShardCrashSpec(shard=1, at=0.5),))
    )
    document = spec.to_dict()
    edit(document)
    with pytest.raises(ExperimentError) as refused:
        RuntimeSpec.from_dict(document)
    assert spec_label in str(refused.value) and field in str(refused.value)


def test_lock_topology_matches_the_simulator_builder():
    """Same spec names drive both paths: the per-key token tree the runtime
    builds is exactly the topology the simulator's TopologySpec builds."""
    spec = RuntimeSpec(topology=TopologySpec(kind="star", n=6))
    built = spec.topology.build()
    reference = star(6)
    assert built.nodes == reference.nodes
    assert built.token_holder == reference.token_holder
    assert built.next_pointers() == reference.next_pointers()


def test_partition_heal_profile_is_registered():
    profile = FAULT_PROFILES["partition-heal"]
    (partition,) = profile.partitions
    assert partition.start < partition.heal  # a real heal window
    assert partition.a != partition.b


def test_crash_churn_profile_cycles_the_token_holder():
    profile = FAULT_PROFILES["crash-churn"]
    assert len(profile.crashes) >= 3  # repeated kill + restart cycles
    for crash in profile.crashes:
        assert crash.restart is not None and crash.restart > crash.time


# --------------------------------------------------------------------------- #
# the runtime fault section
# --------------------------------------------------------------------------- #
def test_runtime_faults_round_trip():
    spec = RuntimeSpec(
        shards=3,
        faults=RuntimeFaultSpec(
            crashes=(ShardCrashSpec(shard=1, at=0.5),), drop_rate=0.01, seed=7
        ),
        heartbeat_interval=0.05,
        miss_window=0.5,
    )
    restored = RuntimeSpec.from_dict(spec.to_dict())
    assert restored == spec
    assert restored.faults.crashes[0].shard == 1
    assert RuntimeSpec.from_json(spec.canonical_json()) == spec


def test_runtime_fault_validation():
    with pytest.raises(ExperimentError, match="shard"):
        ShardCrashSpec(shard=-1, at=1.0)
    with pytest.raises(ExperimentError, match="crash time"):
        ShardCrashSpec(shard=0, at=0.0)
    with pytest.raises(ExperimentError, match="drop_rate"):
        RuntimeFaultSpec(drop_rate=1.5)
    # a crash schedule naming a shard the spec does not have is caught early
    with pytest.raises(ExperimentError, match="crash"):
        RuntimeSpec(
            shards=2, faults=RuntimeFaultSpec(crashes=(ShardCrashSpec(shard=5, at=1.0),))
        )
    with pytest.raises(ExperimentError, match="heartbeat"):
        RuntimeSpec(heartbeat_interval=0.0)
    with pytest.raises(ExperimentError, match="miss_window"):
        RuntimeSpec(heartbeat_interval=0.5, miss_window=0.5)


# --------------------------------------------------------------------------- #
# the obs section
# --------------------------------------------------------------------------- #
def test_obs_section_round_trips():
    from repro.spec import ObsSpec

    spec = RuntimeSpec(obs=ObsSpec(enabled=True, sample_every=4))
    restored = RuntimeSpec.from_dict(spec.to_dict())
    assert restored == spec
    assert restored.obs.sample_every == 4
    # absent obs serializes as an explicit null and restores as None
    assert RuntimeSpec().to_dict()["obs"] is None
    assert RuntimeSpec.from_dict(RuntimeSpec().to_dict()).obs is None


def test_obs_validation():
    from repro.spec import ObsSpec

    with pytest.raises(ExperimentError, match="sample_every"):
        ObsSpec(sample_every=0)
    with pytest.raises(ExperimentError, match="unknown"):
        ObsSpec.from_dict({"enabled": True, "verbosity": 9})
    # The two fields nothing read are gone; a file that still carries them is
    # refused by name rather than silently accepted.
    with pytest.raises(ExperimentError, match="trace_capacity"):
        ObsSpec.from_dict({"enabled": True, "trace": False, "trace_capacity": 100000})
