"""The ``scheduler`` compatibility surface that outlived the bucket ring.

``perf/`` (the frozen benchmark harness), committed ``experiment-spec/v1``
files and exported sweep shards still pass or carry a ``scheduler`` value.
These tests pin exactly the calls ``perf/simbench.py`` makes and the
documents ``examples/specs`` ships (that every one of them loads is
``tests/test_spec.py::test_all_committed_example_specs_load_and_round_trip``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError, SchedulingError
from repro.sim.engine import SimulationEngine
from repro.sim.network import Network
from repro.sim.schedulers import make_scheduler
from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"


def test_perf_harness_call_shapes_run_on_the_heap():
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=20),
        workload=WorkloadSpec(tier="heavy", rounds=2),
        scheduler="auto",
        seed=0,
        collect_metrics=False,
        node_backend="auto",
    )
    topology = spec.topology.build()
    workload = spec.workload.build(topology, seed=0)
    system = spec.build_system(topology)
    driver = ExperimentDriver(system, workload, scheduler=spec.scheduler)
    assert system.engine.scheduler_kind == "heap"
    assert driver.run().completed_entries == len(workload)

    # simbench's null-layer engine: the engaged kind fed back to the factory.
    null = SimulationEngine(
        scheduler=make_scheduler(
            system.engine.scheduler_kind, latency=system.network.latency, workload=workload
        )
    )
    fired = []
    null.schedule_lite(2.0, fired.append, "late")
    null.schedule_lite(1.0, fired.append, "early")
    null.run()
    assert fired == ["early", "late"]

    # simbench's null network: bare ``register`` handlers that forward to the
    # next id (no dispatch table), a ``schedule_lite`` kick-off, and the
    # count read back from ``messages_sent``.
    engine = SimulationEngine(scheduler=make_scheduler("heap"))
    network = Network(engine)
    send = network.send
    budget = 10

    def forwarder(node):
        def on_message(_sender, message):
            nonlocal budget
            if budget > 0:
                budget -= 1
                send(node, node % 3 + 1, message)

        return on_message

    for node in (1, 2, 3):
        network.register(node, forwarder(node))
    engine.schedule_lite(0.0, lambda node: send(node, node % 3 + 1, None), 1)
    engine.run()
    assert network.messages_sent == 11
    assert engine.processed_events == 12

    with pytest.raises(SchedulingError, match="bucket-ring scheduler was removed"):
        ExperimentDriver(spec.build_system(topology), workload, scheduler="ring")


def test_spec_documents_accept_auto_and_heap_and_reject_ring():
    document = json.loads((SPEC_DIR / "dag_star1000_heavy.json").read_text())
    assert document["scheduler"] == "auto"
    document["scheduler"] = "heap"
    assert ExperimentSpec.from_dict(document).scheduler == "heap"
    document["scheduler"] = "ring"
    with pytest.raises(ExperimentError, match="bucket-ring scheduler was removed"):
        ExperimentSpec.from_json(json.dumps(document))


def test_acceptance_spec_replays_to_its_pinned_entry_order_digest():
    # The digest `repro run --spec examples/specs/dag_star1000_heavy.json`
    # printed before the ring was deleted (when "auto" already chose the heap
    # for this cell).
    result = ExperimentSpec.load(str(SPEC_DIR / "dag_star1000_heavy.json")).run()
    joined = ",".join(str(node) for node in result.entry_order)
    assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == (
        "92ef041d7eb0bef41f4cb6f196108e05bdfa4af2b26b0df5613f5601fe708fd8"
    )
