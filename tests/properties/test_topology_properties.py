"""Property-based tests for topologies and orientations."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.baselines.dag_adapter import DagMutexProtocol, run_initialization
from repro.topology.base import Topology
from repro.topology.builders import balanced_tree, line, radiating_star, random_tree, star
from repro.topology.metrics import diameter, eccentricity, path_between


topology_strategy = st.one_of(
    st.integers(min_value=1, max_value=20).map(lambda n: line(n)),
    st.integers(min_value=1, max_value=20).map(lambda n: star(n)),
    st.tuples(
        st.integers(min_value=2, max_value=25),
        st.integers(min_value=0, max_value=10_000),
    ).map(lambda args: random_tree(args[0], seed=args[1])),
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    ).map(lambda args: balanced_tree(args[0], args[1])),
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    ).map(lambda args: radiating_star(args[0], args[1])),
)


@given(topology_strategy)
@settings(max_examples=80, deadline=None)
def test_every_generated_topology_is_a_tree(topology: Topology):
    assert len(topology.edges) == topology.size - 1
    # Every node is reachable from the token holder.
    assert len(topology.next_pointers()) == topology.size


@given(topology_strategy, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_orientation_toward_any_node_is_valid(topology: Topology, pick: int):
    target = topology.nodes[pick % topology.size]
    rerooted = topology.with_token_holder(target)
    pointers = rerooted.next_pointers()
    assert [node for node, successor in pointers.items() if successor is None] == [target]
    # The product's orientation checks (edges in the tree, no cycle, one sink
    # holding the token) on a system stood up from the same orientation.
    protocol = DagMutexProtocol(rerooted, check_invariants=True)
    assert {node_id: protocol.node(node_id).next_node for node_id in protocol.node_ids} == pointers
    protocol.invariant_checker.check()


@given(topology_strategy)
@settings(max_examples=60, deadline=None)
def test_diameter_equals_max_eccentricity(topology: Topology):
    assert diameter(topology) == max(
        eccentricity(topology, node) for node in topology.nodes
    )


@given(topology_strategy, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_path_between_endpoints_is_simple_and_consistent(topology: Topology, pick: int):
    nodes = topology.nodes
    source = nodes[pick % len(nodes)]
    target = nodes[(pick // 7) % len(nodes)]
    path = path_between(topology, source, target)
    assert path[0] == source
    assert path[-1] == target
    assert len(path) == len(set(path))
    # Consecutive path entries are adjacent in the tree.
    for a, b in zip(path, path[1:]):
        assert b in topology.neighbors(a)


@given(topology_strategy)
@settings(max_examples=40, deadline=None)
def test_initialization_flood_matches_analytic_orientation(topology: Topology):
    """Figure 5's INIT flood computes exactly the BFS orientation."""
    adjacency = {node: list(topology.neighbors(node)) for node in topology.nodes}
    pointers = run_initialization(adjacency, topology.token_holder)
    assert pointers == topology.next_pointers()


@given(topology_strategy, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_rerooting_preserves_the_edge_set(topology: Topology, pick: int):
    new_holder = topology.nodes[pick % topology.size]
    rerooted = topology.with_token_holder(new_holder)
    assert rerooted.edges == topology.edges
    assert rerooted.token_holder == new_holder
