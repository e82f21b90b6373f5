"""The :class:`Topology` value object.

A topology is the *undirected* logical tree plus the identity of the initial
token holder, with the orientation the algorithm starts from (each node's
``NEXT`` pointer aimed at the neighbour on the path toward the token holder).
Every topology, at every size, is stored in the CSR arrays described in
:mod:`repro.topology.compact`; the same tree can be re-rooted at a different
holder without copying them.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Optional, Tuple

from repro.exceptions import TopologyError
from repro.topology.compact import _ParentView, csr_from_edges, orient
from repro.topology.validation import validate_tree


class Topology:
    """An undirected logical tree on nodes ``1..n`` with an initial token holder.

    The family builders (:mod:`repro.topology.builders`) fill the arrays in
    closed form and are correct by construction, so the constructor checks
    only the cheap structural invariants (offset shape and monotonicity,
    ``2 * (n - 1)`` adjacency entries, the holder's range).  An explicit edge
    list goes through :meth:`from_edges`, which validates it as a tree.

    Args:
        n: number of nodes; ids are the contiguous range ``1..n``.
        adjacency: flat neighbour array — node ``v``'s neighbours, sorted
            ascending, occupy ``adjacency[offsets[v-1]:offsets[v]]``.
        offsets: ``n + 1`` cumulative degree prefix sums (``offsets[0] == 0``).
        token_holder: the node initially holding the token; it becomes the
            unique sink of the orientation.
        parent: the orientation toward ``token_holder`` (see :attr:`parent`);
            derived by :func:`~repro.topology.compact.orient` when omitted.
        diameter: optional exact diameter, exposed as :attr:`diameter_hint`
            so :func:`repro.topology.metrics.diameter` can skip its double
            BFS on shapes the builders know analytically.

    Attributes:
        nodes: the node ids, ``range(1, n + 1)``.
        size: ``n``.
        token_holder: the initial token holder.
        parent: ``array('i')`` of ``n + 1`` slots — ``parent[v]`` is ``v``'s
            initial ``NEXT``, ``0`` for the holder (slot 0 unused).
        diameter_hint: the exact diameter when the builder knew it, else
            ``None``.
    """

    __slots__ = (
        "nodes", "size", "token_holder", "parent", "diameter_hint", "_adjacency", "_offsets",
    )

    def __init__(
        self,
        *,
        n: int,
        adjacency: array,
        offsets: array,
        token_holder: int,
        parent: Optional[array] = None,
        diameter: Optional[int] = None,
    ) -> None:
        if n < 1:
            raise TopologyError(f"need at least one node, got {n}")
        if len(offsets) != n + 1 or offsets[0] != 0:
            raise TopologyError(
                f"offsets must hold n + 1 prefix sums starting at 0, "
                f"got {len(offsets)} entries for n={n}"
            )
        if offsets[n] != len(adjacency) or len(adjacency) != 2 * (n - 1):
            raise TopologyError(
                f"a tree on {n} nodes has {2 * (n - 1)} adjacency entries, "
                f"got {len(adjacency)} (offsets end at {offsets[n]})"
            )
        flat = offsets.tolist()
        if flat != sorted(flat):  # C passes; Timsort is O(n) on sorted input
            raise TopologyError("offsets must be non-decreasing")
        if not 1 <= token_holder <= n:
            raise TopologyError(
                f"token holder {token_holder} is not a node of the topology"
            )
        if parent is None:
            parent = orient(adjacency, offsets, token_holder)
        elif len(parent) != n + 1:
            raise TopologyError(
                f"parent array needs n + 1 slots, got {len(parent)} for n={n}"
            )
        self.nodes = range(1, n + 1)
        self.size = n
        self.token_holder = token_holder
        self.parent = parent
        self.diameter_hint = diameter
        self._adjacency = adjacency
        self._offsets = offsets

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]], token_holder: int) -> "Topology":
        """Build a topology from an explicit edge list, validated as a tree.

        The node ids must be exactly ``1..n``, where ``n`` is one more than
        the number of edges (a tree's count), so ``from_edges([], 1)`` is the
        single-node topology.

        Raises:
            TopologyError: if the edges name an id outside ``1..n``, repeat an
                edge, close a cycle, leave the graph disconnected or hold a
                self-loop, or if ``token_holder`` is not one of the nodes.
        """
        edge_list = [(int(a), int(b)) for a, b in edges]
        n = len(edge_list) + 1
        validate_tree(range(1, n + 1), edge_list)
        adjacency, offsets = csr_from_edges(n, edge_list)
        return cls(n=n, adjacency=adjacency, offsets=offsets, token_holder=token_holder)

    # ------------------------------------------------------------------ #
    # queries (served from the arrays)
    # ------------------------------------------------------------------ #
    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical ``(low, high)`` edge tuples, sorted, materialised on demand.

        O(n) allocation — meant for tests and small-scale introspection, not
        for the million-node hot path (which never needs explicit edges).
        """
        adjacency, offsets = self._adjacency, self._offsets
        return tuple(
            (v, w)
            for v in self.nodes
            for w in adjacency[offsets[v - 1]:offsets[v]]
            if v < w
        )

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Neighbours of ``node`` in the undirected tree, sorted."""
        if not 1 <= node <= self.size:
            raise TopologyError(f"unknown node {node}")
        return tuple(self._adjacency[self._offsets[node - 1]:self._offsets[node]])

    def degree(self, node: int) -> int:
        """Undirected degree of ``node``."""
        if not 1 <= node <= self.size:
            raise TopologyError(f"unknown node {node}")
        return self._offsets[node] - self._offsets[node - 1]

    def leaves(self) -> Tuple[int, ...]:
        """Nodes of degree one (the one node of a single-node topology)."""
        if self.size == 1:
            return (1,)
        offsets = self._offsets
        return tuple(v for v in self.nodes if offsets[v] - offsets[v - 1] == 1)

    # ------------------------------------------------------------------ #
    # orientation
    # ------------------------------------------------------------------ #
    def next_pointers(self) -> Mapping[int, Optional[int]]:
        """Initial ``NEXT`` values: each node's neighbour on the path to the token holder.

        Returns:
            A read-only mapping from node id to its ``NEXT`` neighbour, with
            ``None`` for the token holder itself (the sink — ``NEXT = 0`` in
            the paper), served from :attr:`parent` with no per-node storage.
        """
        return _ParentView(self.parent, self.size)

    def with_token_holder(self, node: int) -> "Topology":
        """Return the same tree with a different initial token holder.

        The arrays are shared; only the orientation is derived afresh.
        """
        if not 1 <= node <= self.size:
            raise TopologyError(f"unknown node {node}")
        if node == self.token_holder:
            return self
        return Topology(
            n=self.size,
            adjacency=self._adjacency,
            offsets=self._offsets,
            token_holder=node,
            diameter=self.diameter_hint,
        )

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Short human-readable description used in reports."""
        return (
            f"Topology(n={self.size}, edges={self.size - 1}, "
            f"token_holder={self.token_holder})"
        )

    __repr__ = describe
