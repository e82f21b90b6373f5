"""The one regeneration procedure's refusal rule, on the simulator's nodes.

(The live-cluster side of the same function is exercised through
``LocalCluster.regenerate_token`` in ``tests/runtime/test_cluster_lock.py``;
the fault experiments replay the full fence-elect-reissue path.)
"""

from __future__ import annotations

import pytest

from repro.baselines.dag_adapter import DagSystem
from repro.core.recovery import regenerate_token
from repro.exceptions import ProtocolError
from repro.topology.builders import star

from ..conftest import forced_node_backend


def table(system):
    return {node_id: node.snapshot() for node_id, node in system.nodes.items()}


@pytest.mark.parametrize("node_backend", ["object", "compact"])
def test_regeneration_refuses_to_mint_a_second_token(node_backend):
    with forced_node_backend(node_backend):
        system = DagSystem(star(4))
    assert system.node_backend == node_backend
    system.request(3)
    system.request(2)
    system.run_until_quiescent()
    assert system.nodes[3].in_critical_section and system.nodes[2].requesting
    before = table(system)

    with pytest.raises(ProtocolError, match=r"not lost.*\[3\]"):
        regenerate_token(system.nodes)
    with pytest.raises(ProtocolError, match="every node is crashed"):
        regenerate_token(system.nodes, crashed={1, 2, 3, 4})
    assert table(system) == before  # a refusal touches nothing

    # Once the executing holder is down the token really is lost: the waiter
    # is elected and enters directly.
    outcome = regenerate_token(system.nodes, crashed={3})
    assert outcome == {"new_holder": 2, "granted_immediately": True, "reissued": 0}
    assert system.nodes[2].in_critical_section
    assert system.nodes[1].next_node == system.nodes[4].next_node == 2
