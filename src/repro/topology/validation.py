"""Structural validation of logical topologies.

The paper's assumption (Chapter 3): the undirected logical graph is acyclic
even without considering edge directions and, together with the requirement
that requests can always reach the token holder, connected — i.e. it is a
tree.  The orientation assumptions (out-degree at most one, one sink reachable
from every node) are checked on a live system by
:class:`~repro.core.invariants.InvariantChecker`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.exceptions import TopologyError


def validate_tree(nodes: Sequence[int], edges: Sequence[Tuple[int, int]]) -> None:
    """Validate that ``(nodes, edges)`` forms a tree.

    Raises:
        TopologyError: if the graph is empty, has an edge touching an unknown
            node, a self-loop or a repeated edge, is disconnected, or contains
            a cycle.
    """
    node_set = set(nodes)
    if not node_set:
        raise TopologyError("topology must contain at least one node")
    for a, b in edges:
        if a not in node_set or b not in node_set:
            raise TopologyError(f"edge ({a}, {b}) references a node outside the topology")
        if a == b:
            raise TopologyError(f"self-loop edge ({a}, {b}) is not allowed")
    if len({(a, b) if a < b else (b, a) for a, b in edges}) != len(edges):
        raise TopologyError("duplicate edges in topology")

    if len(edges) != len(node_set) - 1:
        raise TopologyError(
            f"a tree on {len(node_set)} nodes needs exactly {len(node_set) - 1} edges, "
            f"got {len(edges)} (the graph is disconnected or contains a cycle)"
        )

    adjacency: Dict[int, list] = {node: [] for node in node_set}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)

    # With |E| = |V| - 1 established, connectivity alone implies acyclicity.
    start = next(iter(node_set))
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency[current]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    if seen != node_set:
        missing = sorted(node_set - seen)
        raise TopologyError(
            f"topology is disconnected, so its {len(edges)} edges close a cycle; "
            f"unreachable nodes: {missing}"
        )

