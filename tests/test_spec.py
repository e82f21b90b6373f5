"""Tests for the declarative experiment spec API and the capability registry.

Three contracts are pinned here:

* **round trip** — ``ExperimentSpec.from_json(spec.canonical_json()) == spec``
  for every field combination the matrices use;
* **capability completeness** — every registered algorithm declares the full
  capability set on its own class (no inherited defaults), and the registry's
  scale queries reproduce the tier memberships the hand-maintained tuples
  used to encode;
* **spec-vs-legacy byte identity** — a spec-built scenario replays the
  legacy construction paths' exact entry order, counts and finish time over
  the sweep smoke matrix and the bench cell families.
"""

from __future__ import annotations

import dataclasses
import json
from unittest import mock

import pytest

from repro.baselines import STORAGE_CLASSES, registry
from repro.baselines.base import MutexSystem
from repro.cells import (
    bench_cell,
    load_spec_shard,
    sweep_cell,
    sweep_matrix,
    tier_workload,
    validate_algorithms,
    write_spec_shard,
)
from repro.exceptions import ExperimentError, WorkloadError
from repro.spec import (
    DEFAULT_HEAVY_ROUNDS,
    FAULT_PROFILES,
    STREAMING_NODE_THRESHOLD,
    WORKLOAD_TIERS,
    XXLARGE_HEAVY_ROUNDS,
    CrashSpec,
    ExperimentSpec,
    FaultSpec,
    LatencySpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.topology import star
from repro.workload.driver import ExperimentDriver, run_experiment
from repro.workload.generator import WorkloadGenerator

#: Capability attributes every algorithm must declare on its own class.
CAPABILITY_ATTRS = (
    "max_recommended_nodes",
    "storage_class",
    "token_based",
)


def _outcome(result):
    return (
        result.entry_order,
        result.completed_entries,
        result.total_messages,
        round(result.finished_at, 9),
    )


# --------------------------------------------------------------------------- #
# round trip
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(
            algorithm="dag",
            topology=TopologySpec(kind="star", n=1000),
            workload=WorkloadSpec(tier="heavy", rounds=10),
            collect_metrics=False,
        ),
        ExperimentSpec(
            algorithm="maekawa",
            topology=TopologySpec(kind="tree", n=31),
            workload=WorkloadSpec(tier="light", total_requests=64),
            latency=LatencySpec(kind="uniform", low=0.5, high=2.0, seed=3),
            seed=17,
        ),
        ExperimentSpec(
            algorithm="raymond",
            topology=TopologySpec(kind="random", n=64, seed=7),
            workload=WorkloadSpec(tier="diurnal"),
            latency=LatencySpec(kind="exponential", mean=1.5, seed=1),
            record_trace=True,
        ),
        ExperimentSpec(
            algorithm="centralized",
            topology=TopologySpec(kind="line", n=50),
            workload=WorkloadSpec(tier="heavy", rounds=XXLARGE_HEAVY_ROUNDS),
            scheduler="heap",
        ),
        ExperimentSpec(
            algorithm="suzuki-kasami",
            topology=TopologySpec(kind="star", n=9),
            workload=WorkloadSpec(tier="hotspot"),
            latency=LatencySpec(kind="constant", value=2.0),
        ),
    ],
)
def test_spec_json_round_trip(spec):
    assert ExperimentSpec.from_json(spec.canonical_json()) == spec


def test_canonical_json_is_stable_and_sorted():
    spec = ExperimentSpec.parse("dag", "star:50", "heavy")
    first = spec.canonical_json()
    assert first == ExperimentSpec.from_json(first).canonical_json()
    data = json.loads(first)
    assert list(data) == sorted(data)
    assert data["schema"] == "experiment-spec/v1"


def test_spec_file_round_trip(tmp_path):
    spec = ExperimentSpec.parse("raymond", "tree:31", "bursty", seed=4)
    path = tmp_path / "spec.json"
    spec.save(str(path))
    assert ExperimentSpec.load(str(path)) == spec


def test_from_dict_rejects_unknown_fields_and_schema():
    spec = ExperimentSpec.parse("dag", "star:9", "light")
    data = json.loads(spec.canonical_json())
    data["surprise"] = 1
    with pytest.raises(ExperimentError, match="unknown fields"):
        ExperimentSpec.from_dict(data)
    data = json.loads(spec.canonical_json())
    data["schema"] = "experiment-spec/v999"
    with pytest.raises(ExperimentError, match="schema"):
        ExperimentSpec.from_dict(data)
    with pytest.raises(ExperimentError, match="not valid JSON"):
        ExperimentSpec.from_json("{nope")


#: Spec files from outside the program that ``from_dict`` must refuse, each
#: with an ``ExperimentError`` naming the spec and the field: (path into the
#: document, replacement value or ``DROP``, spec, field).
DROP = object()
MALFORMED_EXPERIMENT_DOCUMENTS = [
    (("topology", "n"), DROP, "topology spec", "'n'"),
    (("algorithm",), DROP, "experiment spec", "'algorithm'"),
    (("faults", "crashes", 0, "time"), DROP, "crash spec", "'time'"),
    (("faults", "crashes"), 5, "fault spec", "'crashes'"),
    (("topology", "n"), "5", "topology spec", "'n'"),
    (("topology", "n"), True, "topology spec", "'n'"),
    # A field retired from experiment-spec/v1, as the documents that still
    # carry it wrote it: now an unknown field.
    (("topology", "compact"), None, "topology spec", "'compact'"),
    (("workload", "streaming"), None, "workload spec", "'streaming'"),
    (("workload", "chunk_requests"), None, "workload spec", "'chunk_requests'"),
    (("workload", "rounds"), 2.5, "workload spec", "'rounds'"),
]


@pytest.mark.parametrize(
    "path, value, spec_label, field",
    MALFORMED_EXPERIMENT_DOCUMENTS,
    ids=[
        ".".join(map(str, path)) + (" dropped" if value is DROP else f"={value!r}")
        for path, value, *_ in MALFORMED_EXPERIMENT_DOCUMENTS
    ],
)
def test_from_dict_names_the_spec_and_field_of_malformed_input(path, value, spec_label, field):
    spec = ExperimentSpec.parse("dag", "star:9", "heavy:2")
    document = json.loads(
        dataclasses.replace(spec, faults=FAULT_PROFILES["crash-churn"]).canonical_json()
    )
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(ExperimentError) as refused:
        ExperimentSpec.from_dict(document)
    assert spec_label in str(refused.value) and field in str(refused.value)


def test_spec_validation_lists_known_names():
    with pytest.raises(ExperimentError, match="centralized"):
        ExperimentSpec.parse("typo", "star:9", "heavy")
    with pytest.raises(ExperimentError, match="line"):
        TopologySpec(kind="hypercube", n=8)
    with pytest.raises(ExperimentError, match="diurnal"):
        WorkloadSpec(tier="sawtooth")
    with pytest.raises(ExperimentError, match="heap"):
        ExperimentSpec(
            algorithm="dag",
            topology=TopologySpec(kind="star", n=9),
            workload=WorkloadSpec(tier="heavy"),
            scheduler="lifo",
        )
    with pytest.raises(ExperimentError, match="constant"):
        LatencySpec(kind="normal")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_latency_does_not_survive_the_json_round_trip(token):
    """JSON's NaN/Infinity extensions are not numbers a spec can hold: one
    that got in would replay to ``finished_at`` ``nan`` / ``inf``."""
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=5),
        workload=WorkloadSpec(tier="heavy", rounds=1),
        latency=LatencySpec(kind="constant", value=2.0),
    )
    text = spec.canonical_json().replace('"value": 2.0', f'"value": {token}')
    assert token in text
    with pytest.raises(ExperimentError, match="field 'value' must be a finite number, got"):
        ExperimentSpec.from_json(text)


def test_every_float_field_of_a_spec_is_a_finite_number():
    """One rule in the codec covers every spec class's float fields."""
    with pytest.raises(ExperimentError, match="'restart' must be a finite number or null"):
        CrashSpec.from_dict({"node": 1, "time": 5.0, "restart": float("inf")})
    with pytest.raises(ExperimentError, match="'drop_rate' must be a finite number, got nan"):
        FaultSpec.from_dict({"drop_rate": float("nan")})
    # An int is a finite number however large.
    assert CrashSpec.from_dict({"node": 1, "time": 10**400}).time == 10**400


@pytest.mark.parametrize(
    "fields, field",
    [
        (dict(kind="constant", value=float("nan")), "value"),
        (dict(kind="constant", value=float("inf")), "value"),
        (dict(kind="constant", value=0.0), "value"),
        (dict(kind="uniform", low=-1.0), "low"),
        (dict(kind="uniform", low=3.0, high=1.0), "high"),
        (dict(kind="uniform", high=float("inf")), "high"),
        (dict(kind="exponential", mean=float("nan")), "mean"),
    ],
)
def test_latency_spec_range_checks_the_fields_its_kind_uses(fields, field):
    with pytest.raises(ExperimentError, match=f"latency spec field '{field}' must be"):
        LatencySpec(**fields)


def test_latency_spec_ignores_the_fields_its_kind_does_not_use():
    assert LatencySpec(kind="constant", low=3.0, high=1.0, mean=-1.0).build().value == 1.0


def test_node_backend_validation_and_round_trip():
    """``node_backend`` is a schema-compatibility key with one spelling.

    The topology's size picks the backend; the two retired spellings are
    refused with a message that names the removal (as ``"ring"`` is for the
    scheduler), in a spec file as in the constructor, and ``"auto"`` — what
    every committed spec and exported shard carries — round-trips to the
    same bytes.
    """
    cell = dict(
        algorithm="dag", topology=TopologySpec(kind="star", n=9), workload=WorkloadSpec(tier="heavy")
    )
    for retired in ("object", "compact"):
        with pytest.raises(ExperimentError, match="node backend was removed"):
            ExperimentSpec(**cell, node_backend=retired)
    with pytest.raises(ExperimentError, match=r"unknown node backend 'sparse'; known: \['auto'\]"):
        ExperimentSpec(**cell, node_backend="sparse")
    spec = ExperimentSpec(**cell, node_backend="auto")
    text = spec.canonical_json()
    assert json.loads(text)["node_backend"] == "auto"
    assert ExperimentSpec.from_json(text) == spec
    assert ExperimentSpec.from_json(text).canonical_json() == text
    with pytest.raises(ExperimentError, match="node backend was removed"):
        ExperimentSpec.from_json(text.replace('"node_backend": "auto"', '"node_backend": "compact"'))


def test_build_system_engages_requested_backend():
    """The backend is one comparison of the topology's size against
    ``COMPACT_NODE_BACKEND_THRESHOLD``; nothing in a spec can move it."""
    from repro.core import compact_state

    spec = ExperimentSpec.parse("dag", "star:9", "heavy")
    assert spec.build_system(star(9)).node_backend == "object"
    assert compact_state.COMPACT_NODE_BACKEND_THRESHOLD == 100_000
    with mock.patch.object(compact_state, "COMPACT_NODE_BACKEND_THRESHOLD", 9):
        assert spec.build_system(star(9)).node_backend == "compact"
        assert spec.build_system(star(8)).node_backend == "object"
        # The baselines have the object nodes only, at any size.
        lamport_spec = ExperimentSpec.parse("lamport", "star:9", "heavy")
        assert lamport_spec.build_system(star(9)).node_backend == "object"


def test_workload_spec_field_constraints():
    with pytest.raises(ExperimentError):
        WorkloadSpec(tier="light", rounds=3)  # rounds are heavy-only
    with pytest.raises(ExperimentError):
        WorkloadSpec(tier="heavy", total_requests=10)  # heavy sized by rounds
    with pytest.raises(ExperimentError):
        WorkloadSpec(tier="heavy", rounds=0)


def test_parse_shorthand_forms():
    spec = ExperimentSpec.parse("dag", "star:1000", "heavy")
    assert spec.topology == TopologySpec(kind="star", n=1000)
    assert spec.workload == WorkloadSpec(tier="heavy")
    assert ExperimentSpec.parse("dag", "random:64:7", "light").topology.seed == 7
    assert ExperimentSpec.parse("dag", "line:50", "heavy:5").workload.rounds == 5
    for bad in ("star", "star:ten", "star:9:1:2"):
        with pytest.raises(ExperimentError):
            ExperimentSpec.parse("dag", bad, "heavy")
    with pytest.raises(ExperimentError):
        ExperimentSpec.parse("dag", "star:9", "heavy:many")


# --------------------------------------------------------------------------- #
# capability completeness + registry queries
# --------------------------------------------------------------------------- #
def test_every_algorithm_declares_capabilities_explicitly():
    for name, system_class in registry.items():
        for attr in CAPABILITY_ATTRS:
            declared = any(
                attr in klass.__dict__
                for klass in system_class.__mro__
                if klass is not MutexSystem and klass is not object
            )
            assert declared, f"{name} inherits {attr} instead of declaring it"
        assert system_class.storage_class in STORAGE_CLASSES
        assert system_class.storage_description, f"{name} lacks a storage description"


def test_registry_capabilities_reflect_class_attributes():
    caps = registry.capabilities("raymond")
    assert caps.name == "raymond"
    assert caps.token_based is True
    assert caps.storage_class == "queue"
    assert caps.max_recommended_nodes == 100_000
    assert caps.supports_scale(100_000)
    assert not caps.supports_scale(100_001)
    unbounded = registry.capabilities("dag")
    assert unbounded.max_recommended_nodes is None
    assert unbounded.supports_scale(10**9)
    with pytest.raises(KeyError, match="unknown algorithm"):
        registry.capabilities("typo")


def test_scale_queries_reproduce_tier_memberships():
    # The memberships the hand-maintained tuples used to pin, now derived
    # from per-class capability declarations.
    assert registry.names_for_scale(50) == list(registry.names())
    assert registry.names_for_scale(10_000) == ["centralized", "raymond", "dag"]
    assert registry.names_for_scale(100_000) == ["centralized", "raymond", "dag"]
    assert registry.names_for_scale(1_000_000) == ["centralized", "dag"]


def test_validate_algorithms_lists_registry_entries():
    validate_algorithms(None)
    validate_algorithms(["dag", "raymond"])
    with pytest.raises(WorkloadError, match=r"\['typo'\].*centralized"):
        validate_algorithms(["dag", "typo"])
    with pytest.raises(WorkloadError):
        sweep_matrix("smoke", algorithms=["nope"])


# --------------------------------------------------------------------------- #
# spec-vs-legacy replay byte identity
# --------------------------------------------------------------------------- #
def test_spec_replays_sweep_smoke_matrix_identically():
    # Every smoke cell: the scenario's canonical spec must replay the legacy
    # construction (registry class + topology builder + tier generator)
    # event for event.
    for cell in sweep_matrix("smoke"):
        spec = cell.experiment
        topology = star(spec.topology.n)
        generator = WorkloadGenerator(topology.nodes, seed=spec.seed)
        workload = (
            generator.heavy_demand(rounds=5)
            if spec.workload.tier == "heavy"
            else generator.bursty(
                total_requests=2 * spec.topology.n,
                mean_burst_size=8.0,
                burst_interarrival=0.5,
                mean_idle_gap=20.0,
            )
        )
        legacy = run_experiment(
            spec.algorithm,
            topology,
            workload,
            collect_metrics=spec.collect_metrics,
        )
        assert _outcome(spec.run()) == _outcome(legacy), cell.name


def test_spec_matches_hand_built_tier_definitions():
    # Independent spelling of the frozen tier parameterisations: if a spec
    # default drifts, this fails even though both entry points now share
    # builders.
    topology = star(40)
    seed = sweep_cell("dag", "star", 40, "heavy").experiment.seed
    hand = WorkloadGenerator(topology.nodes, seed=seed).heavy_demand(rounds=5)
    via_spec = tier_workload("heavy", 40, heavy_rounds=5).build(topology, seed=seed)
    assert tuple(via_spec) == tuple(hand)

    bench_hand = WorkloadGenerator(topology.nodes, seed=0).heavy_demand(
        rounds=DEFAULT_HEAVY_ROUNDS
    )
    bench_spec = tier_workload("heavy", 40, heavy_rounds=10).build(topology, seed=0)
    assert tuple(bench_spec) == tuple(bench_hand)

    light_hand = WorkloadGenerator(topology.nodes, seed=3).poisson(
        total_requests=80, mean_interarrival=5.0
    )
    light_spec = WorkloadSpec(tier="light").build(topology, seed=3)
    assert tuple(light_spec) == tuple(light_hand)


def test_bench_cell_spec_replays_legacy_dag_run():
    from repro.baselines.dag_adapter import DagSystem

    cell = bench_cell("star", 100, "heavy")
    topology = star(100)
    workload = WorkloadGenerator(topology.nodes, seed=0).heavy_demand(
        rounds=DEFAULT_HEAVY_ROUNDS
    )
    legacy_system = DagSystem(topology, collect_metrics=False)
    legacy = ExperimentDriver(legacy_system, workload).run()

    spec = cell.experiment
    driver = ExperimentDriver.from_spec(spec)
    via_spec = driver.run()
    assert _outcome(via_spec) == _outcome(legacy)
    assert driver.system.engine.processed_events == legacy_system.engine.processed_events


def test_a_cell_at_the_node_threshold_runs_the_xxlarge_rounds():
    spec_threshold_cell = tier_workload("heavy", STREAMING_NODE_THRESHOLD, heavy_rounds=10)
    assert spec_threshold_cell == WorkloadSpec(tier="heavy", rounds=XXLARGE_HEAVY_ROUNDS)


def test_spec_run_is_the_driver_replay():
    spec = ExperimentSpec.parse("dag", "star:20", "heavy:2")
    assert _outcome(spec.run()) == _outcome(ExperimentDriver.from_spec(spec).run())


def test_spec_latency_and_seed_are_part_of_the_outcome():
    base = ExperimentSpec.parse("dag", "star:20", "light")
    other_seed = ExperimentSpec.parse("dag", "star:20", "light", seed=5)
    slow = ExperimentSpec(
        algorithm="dag",
        topology=base.topology,
        workload=base.workload,
        latency=LatencySpec(kind="constant", value=2.0),
    )
    assert _outcome(base.run()) == _outcome(base.run())  # reproducible
    assert _outcome(base.run()) != _outcome(other_seed.run())
    assert base.run().finished_at < slow.run().finished_at


# --------------------------------------------------------------------------- #
# spec shards
# --------------------------------------------------------------------------- #
def test_spec_shard_round_trip(tmp_path):
    matrix = sweep_matrix("smoke", algorithms=["dag", "raymond"])
    path = tmp_path / "shard.json"
    write_spec_shard(matrix, str(path))
    assert load_spec_shard(str(path)) == matrix


def test_spec_shard_rejects_tampering(tmp_path):
    matrix = sweep_matrix("smoke", algorithms=["dag"])
    path = tmp_path / "shard.json"
    write_spec_shard(matrix, str(path))
    document = json.loads(path.read_text())

    tampered = json.loads(json.dumps(document))
    tampered["scenarios"][0]["seed"] += 1
    path.write_text(json.dumps(tampered))
    with pytest.raises(WorkloadError, match="mislabelled"):
        load_spec_shard(str(path))

    tampered = json.loads(json.dumps(document))
    tampered["scenarios"][0]["workload"]["rounds"] = 99
    path.write_text(json.dumps(tampered))
    with pytest.raises(WorkloadError, match="frozen"):
        load_spec_shard(str(path))

    path.write_text(json.dumps({"schema": "other/v1", "scenarios": []}))
    with pytest.raises(WorkloadError, match="spec-shard"):
        load_spec_shard(str(path))


def test_committed_example_spec_replays_legacy_acceptance_cell():
    # The acceptance contract: examples/specs/dag_star1000_heavy.json must
    # reproduce the legacy run_experiment call's entry order and counts.
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "examples" / "specs"
    spec = ExperimentSpec.load(str(path / "dag_star1000_heavy.json"))
    assert spec == bench_cell("star", 1000, "heavy").experiment

    topology = star(1000)
    workload = WorkloadGenerator(topology.nodes, seed=0).heavy_demand(
        rounds=DEFAULT_HEAVY_ROUNDS
    )
    legacy = run_experiment("dag", topology, workload, collect_metrics=False)
    driver = ExperimentDriver.from_spec(spec)
    via_spec = driver.run()
    assert _outcome(via_spec) == _outcome(legacy)


def test_all_committed_example_specs_load_and_round_trip():
    from pathlib import Path

    from repro.spec import RuntimeSpec

    spec_dir = Path(__file__).resolve().parent.parent / "examples" / "specs"
    paths = sorted(spec_dir.glob("*.json"))
    assert len(paths) >= 3, "examples/specs should ship at least 3 spec files"
    for path in paths:
        # The directory commits both worlds; dispatch on the schema key the
        # way `repro run --spec` does.
        payload = json.loads(path.read_text())
        loader = (
            RuntimeSpec
            if payload.get("schema") == "runtime-spec/v1"
            else ExperimentSpec
        )
        spec = loader.load(str(path))
        # Committed files are in canonical form: load -> dump is the identity.
        assert spec.canonical_json() == path.read_text()


def test_spec_shard_rejects_foreign_latency_and_trace(tmp_path):
    # The tamper check covers every outcome-affecting field, not just the
    # workload tier: a shard declaring a latency model (or trace mode) the
    # sweep's frozen cells do not use must be refused, not silently dropped.
    matrix = sweep_matrix("smoke", algorithms=["dag"])
    path = tmp_path / "shard.json"
    write_spec_shard(matrix, str(path))
    document = json.loads(path.read_text())

    tampered = json.loads(json.dumps(document))
    tampered["scenarios"][0]["latency"] = LatencySpec(kind="uniform").to_dict()
    path.write_text(json.dumps(tampered))
    with pytest.raises(WorkloadError, match="frozen"):
        load_spec_shard(str(path))

    tampered = json.loads(json.dumps(document))
    tampered["scenarios"][0]["record_trace"] = True
    path.write_text(json.dumps(tampered))
    with pytest.raises(WorkloadError, match="frozen"):
        load_spec_shard(str(path))

    tampered = json.loads(json.dumps(document))
    tampered["scenarios"][0]["topology"]["seed"] = 5
    path.write_text(json.dumps(tampered))
    with pytest.raises(WorkloadError, match="frozen"):
        load_spec_shard(str(path))


def test_run_experiment_needs_a_topology_and_a_workload():
    with pytest.raises(ExperimentError, match="needs a topology"):
        run_experiment("dag")
    with pytest.raises(ExperimentError, match="needs a topology"):
        run_experiment("dag", star(9))


def test_experiment_spec_obs_section_round_trips():
    import dataclasses

    from repro.spec import ObsSpec

    base = ExperimentSpec.parse("dag", "star:9", "light")
    assert base.obs is None
    assert json.loads(base.canonical_json())["obs"] is None  # explicit null
    spec = dataclasses.replace(base, obs=ObsSpec(enabled=True, sample_every=8))
    restored = ExperimentSpec.from_json(spec.canonical_json())
    assert restored == spec
    assert restored.obs.sample_every == 8
    # the obs section never changes the cell's identity...
    assert restored.name == base.name
    # ...nor its virtual-time outcome (instrumentation is observation only)
    assert spec.run(max_events=200_000).entry_order == base.run(
        max_events=200_000
    ).entry_order
