"""The :class:`Topology` value object.

A topology is the *undirected* logical tree plus the identity of the initial
token holder.  The orientation required by the algorithm (each node's ``NEXT``
pointer aimed at the neighbour on the path toward the token holder) is derived
on demand, so the same tree can be re-rooted at a different holder without
rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.exceptions import TopologyError


def _normalise_edge(a: int, b: int) -> Tuple[int, int]:
    """Canonical (sorted) form of an undirected edge."""
    if a == b:
        raise TopologyError(f"self-loop edge ({a}, {b}) is not allowed")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Topology:
    """An undirected logical tree with a designated initial token holder.

    Attributes:
        nodes: node identifiers (unique positive integers in paper examples,
            but any hashable ints are accepted).
        edges: undirected edges as canonical ``(low, high)`` pairs.
        token_holder: the node that initially holds the token; it becomes the
            unique sink of the derived orientation.

    Construction validates the paper's structural assumption: the undirected
    graph must be a tree (connected, acyclic), which for ``N`` nodes means
    exactly ``N - 1`` edges and full reachability.
    """

    nodes: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    token_holder: int
    _adjacency: Dict[int, Tuple[int, ...]] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        from repro.topology.validation import validate_tree

        nodes = tuple(dict.fromkeys(self.nodes))
        if len(nodes) != len(self.nodes):
            raise TopologyError("duplicate node identifiers in topology")
        edges = tuple(sorted(_normalise_edge(a, b) for a, b in self.edges))
        if len(set(edges)) != len(edges):
            raise TopologyError("duplicate edges in topology")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if self.token_holder not in nodes:
            raise TopologyError(
                f"token holder {self.token_holder} is not a node of the topology"
            )
        validate_tree(nodes, edges)

        adjacency: Dict[int, List[int]] = {node: [] for node in nodes}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(
            self,
            "_adjacency",
            {node: tuple(sorted(neighbours)) for node, neighbours in adjacency.items()},
        )

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Neighbours of ``node`` in the undirected tree, sorted."""
        try:
            return self._adjacency[node]
        except KeyError:
            raise TopologyError(f"unknown node {node}") from None

    def degree(self, node: int) -> int:
        """Undirected degree of ``node``."""
        return len(self.neighbors(node))

    def leaves(self) -> Tuple[int, ...]:
        """Nodes of degree one (degree zero for a single-node topology)."""
        if self.size == 1:
            return self.nodes
        return tuple(node for node in self.nodes if self.degree(node) == 1)

    # ------------------------------------------------------------------ #
    # orientation
    # ------------------------------------------------------------------ #
    def next_pointers(self) -> Dict[int, Optional[int]]:
        """Initial ``NEXT`` values: each node's neighbour on the path to the token holder.

        Returns:
            Mapping from node id to its ``NEXT`` neighbour, with ``None`` for
            the token holder itself (the sink — ``NEXT = 0`` in the paper).
        """
        root = self.token_holder
        pointers: Dict[int, Optional[int]] = {root: None}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            for neighbour in self._adjacency[current]:
                if neighbour not in pointers:
                    pointers[neighbour] = current
                    frontier.append(neighbour)
        return pointers

    def with_token_holder(self, node: int) -> "Topology":
        """Return the same tree with a different initial token holder."""
        if node not in self._adjacency:
            raise TopologyError(f"unknown node {node}")
        return Topology(nodes=self.nodes, edges=self.edges, token_holder=node)

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"Topology(n={self.size}, edges={len(self.edges)}, "
            f"token_holder={self.token_holder})"
        )

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]], token_holder: int) -> "Topology":
        """Build a topology from an edge list, inferring the node set.

        Nodes are ordered by first appearance in ``edges``; a token holder no
        edge names (the single-node topology) is added last.
        """
        edge_list = [(int(a), int(b)) for a, b in edges]
        nodes: Dict[int, None] = {}
        for a, b in edge_list:
            nodes[a] = None
            nodes[b] = None
        if token_holder not in nodes:
            nodes[int(token_holder)] = None
        return cls(nodes=tuple(nodes), edges=tuple(edge_list), token_holder=token_holder)
