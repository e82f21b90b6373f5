"""Driver identity: one protocol text, three drivers, the same behaviour.

The object backend and the asyncio runtime run the *same* method objects
(:class:`~repro.core.node.DagNodeCore`); the compact backend is a hand-inlined
transcription of them.  The same scripted, serialised request/release
sequence — each step runs to quiescence before the next — must therefore
leave the same per-node variable table after every step and cost the same
number of messages on all three.  (The two simulator backends are also held
byte-identical on whole experiments by ``test_backend_identity.py``.)
"""

from __future__ import annotations

import asyncio

import pytest

from repro.baselines.dag_adapter import DagMutexNode, DagSystem
from repro.runtime.cluster import LocalCluster
from repro.runtime.node_runtime import AsyncDagNode
from repro.topology.builders import paper_figure6_topology, star

from ..conftest import forced_node_backend

#: Chapter 4's complete example: 3 enters, 2 / 1 / 5 queue up behind it
#: (implicit queue [2, 1, 5]), then the token walks the queue.
FIGURE_6 = [
    ("request", 3), ("request", 2), ("request", 1), ("request", 5),
    ("release", 3), ("release", 2), ("release", 1), ("release", 5),
]

#: Every node of a star asks while its predecessor still executes, twice round.
ROTATING_STAR = [("request", 1)] + [
    step
    for node_id in [2, 3, 4, 5, 1, 2, 3, 4, 5]
    for step in (("request", node_id), ("release", (node_id - 2) % 5 + 1))
] + [("release", 5)]

SCRIPTS = {
    "figure6": (paper_figure6_topology, FIGURE_6),
    "rotating-star": (lambda: star(5), ROTATING_STAR),
}


def table(nodes):
    return {node_id: node.snapshot() for node_id, node in sorted(nodes.items())}


def run_simulated(topology, script, node_backend):
    with forced_node_backend(node_backend):
        system = DagSystem(topology)
    assert system.node_backend == node_backend
    tables = []
    for action, node_id in script:
        getattr(system, action)(node_id)
        system.run_until_quiescent()
        tables.append(table(system.nodes))
    return tables, system.network.messages_sent


def run_live(topology, script):
    async def scenario():
        async with LocalCluster(topology) as cluster:
            tables, acquires = [], []
            for action, node_id in script:
                node = cluster.node(node_id)
                if action == "request":
                    acquires.append(asyncio.create_task(node.acquire()))
                else:
                    await node.release()
                # Quiescence: one pass takes the new task to its wait point,
                # and delivery is complete when a send returns.
                await asyncio.sleep(0)
                tables.append(table(cluster.nodes))
            await asyncio.wait_for(asyncio.gather(*acquires), timeout=5.0)
            return tables, cluster.transport.messages_sent

    return asyncio.run(scenario())


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_object_compact_and_asyncio_drivers_agree_step_by_step(name):
    build, script = SCRIPTS[name]
    reference_tables, reference_messages = run_simulated(build(), script, "object")
    assert reference_messages > 0
    for driver, (tables, messages) in {
        "compact": run_simulated(build(), script, "compact"),
        "asyncio": run_live(build(), script),
    }.items():
        assert messages == reference_messages, driver
        for step, (got, want) in enumerate(zip(tables, reference_tables)):
            assert got == want, f"{driver} diverges after step {step} {script[step]}"


def test_the_runtime_and_the_simulator_run_the_same_method_objects():
    assert AsyncDagNode.request_cs is DagMutexNode.request_cs
    assert AsyncDagNode.release_cs is DagMutexNode.release_cs
    assert AsyncDagNode._handle_request is DagMutexNode._handle_request
    assert AsyncDagNode._handle_privilege is DagMutexNode._handle_privilege
