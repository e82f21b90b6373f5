"""Graph metrics on logical topologies.

Chapter 6 expresses the algorithm's bounds in terms of the diameter ``D`` of
the logical structure (the length of the longest path) and, for the average
bound, the distances from each node to the token holder.  These helpers
compute exactly those quantities.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.exceptions import TopologyError
from repro.topology.base import Topology


def _bfs_distances(topology: Topology, source: int) -> Dict[int, int]:
    """Hop distances from ``source`` to every node of the tree."""
    if source not in topology.nodes:
        raise TopologyError(f"unknown node {source}")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbour in topology.neighbors(current):
            if neighbour not in distances:
                distances[neighbour] = distances[current] + 1
                queue.append(neighbour)
    return distances


def eccentricity(topology: Topology, node: int) -> int:
    """Greatest hop distance from ``node`` to any other node."""
    return max(_bfs_distances(topology, node).values())


def diameter(topology: Topology) -> int:
    """Length of the longest path in the tree (the paper's ``D``).

    Computed with the standard double-BFS technique, which is exact on trees.
    A topology whose builder knows the diameter in closed form (line, star,
    radiating star, balanced tree) carries it as ``diameter_hint``, which
    skips the double BFS — at a million nodes that is seconds and a ~100 MB
    distance dict saved per benchmark scenario.
    """
    if topology.diameter_hint is not None:
        return topology.diameter_hint
    if topology.size == 1:
        return 0
    start = topology.nodes[0]
    first = _bfs_distances(topology, start)
    farthest = max(first, key=first.__getitem__)
    second = _bfs_distances(topology, farthest)
    return max(second.values())


def path_between(topology: Topology, source: int, target: int) -> List[int]:
    """The unique tree path from ``source`` to ``target`` (inclusive)."""
    if target not in topology.nodes:
        raise TopologyError(f"unknown node {target}")
    if source == target:
        return [source]
    parents: Dict[int, int] = {}
    distances = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        if current == target:
            break
        for neighbour in topology.neighbors(current):
            if neighbour not in distances:
                distances[neighbour] = distances[current] + 1
                parents[neighbour] = current
                queue.append(neighbour)
    if target not in distances:
        raise TopologyError(f"no path between {source} and {target}")
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    path.reverse()
    return path
