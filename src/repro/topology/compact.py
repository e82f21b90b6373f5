"""The CSR arrays every :class:`~repro.topology.base.Topology` is stored in.

A topology holds its undirected tree in two flat ``array('i')`` buffers — the
classic index-offset CSR layout:

* ``adjacency`` — every node's neighbours, sorted, concatenated in node
  order (``2 * (n - 1)`` entries for a tree);
* ``offsets`` — ``n + 1`` cumulative positions; node ``v``'s neighbours are
  ``adjacency[offsets[v-1]:offsets[v]]``.

plus a ``parent`` array holding the orientation toward the token holder (the
paper's initial ``NEXT`` pointers): ``parent[v]`` is ``v``'s neighbour on the
path to the holder, ``0`` for the holder itself, slot 0 unused.  Node ids are
the contiguous range ``1..n``.  The whole 1M-node structure is ~16 MB, and
the family builders fill the buffers with C-level array operations
(``array(...)`` from ranges/chains, repetition, ``extend``) instead of
per-edge Python tuples.

This module holds what works on the bare arrays: :func:`csr_from_edges`
(an explicit edge list into ``adjacency``/``offsets``), :func:`orient` (the
parent array toward any holder) and the read-only ``node -> NEXT`` mapping
:meth:`~repro.topology.base.Topology.next_pointers` returns.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from typing import Iterator, Optional, Tuple


class _ParentView(Mapping):
    """Read-only ``node -> NEXT`` mapping served straight from a parent array.

    A per-node dict would cost ~80 MB of transient allocation at a million
    nodes.  This view answers the same ``pointers[node_id]`` lookups from the
    parent array (sentinel ``0`` means ``None`` — the paper's "NEXT = 0"
    sink), so orientation costs no per-node storage at all.
    """

    __slots__ = ("_parent", "_n")

    def __init__(self, parent: array, n: int) -> None:
        self._parent = parent
        self._n = n

    def __getitem__(self, node: int) -> Optional[int]:
        if not 1 <= node <= self._n:
            raise KeyError(node)
        value = self._parent[node]
        return value if value else None

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self._n + 1))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ParentView(n={self._n})"


def csr_from_edges(n: int, edges) -> Tuple[array, array]:
    """Build ``(adjacency, offsets)`` CSR arrays from an edge list on ``1..n``.

    Three passes over the edges (degree count, fill, per-bucket sort), all
    index arithmetic on flat arrays.  Used for edge sets with no exploitable
    closed form (:meth:`~repro.topology.base.Topology.from_edges`, random
    trees); the regular shapes write their arrays directly.
    """
    degree = array("i", [0]) * (n + 1)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    offsets = array("i", [0]) * (n + 1)
    total = 0
    for v in range(1, n + 1):
        offsets[v] = total = total + degree[v]
    cursor = array("i", offsets[:-1])
    adjacency = array("i", [0]) * (2 * (n - 1))
    for a, b in edges:
        adjacency[cursor[a - 1]] = b
        cursor[a - 1] += 1
        adjacency[cursor[b - 1]] = a
        cursor[b - 1] += 1
    for v in range(1, n + 1):
        start, end = offsets[v - 1], offsets[v]
        if end - start > 1:
            bucket = sorted(adjacency[start:end])
            adjacency[start:end] = array("i", bucket)
    return adjacency, offsets


def orient(adjacency: array, offsets: array, root: int) -> array:
    """The parent array of the tree oriented toward ``root``.

    An iterative depth-first walk over the CSR arrays: ``parent[v]`` is
    ``v``'s neighbour on the path to ``root``, ``0`` for ``root`` (slot 0
    unused).  Used where no builder derived the orientation in closed form —
    an explicit edge list, a random tree, a re-rooted copy.
    """
    parent = array("i", [0]) * len(offsets)
    frontier = [root]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency[offsets[current - 1]:offsets[current]]:
            if neighbour != parent[current]:
                parent[neighbour] = current
                frontier.append(neighbour)
    return parent
