"""Array-backed (CSR) topologies for the large scale tiers.

A dict-of-tuples adjacency is the right representation up to a few tens of
thousands of nodes: it is simple, generic over arbitrary node ids, and every
query is a hash lookup.  Past that it becomes the construction bottleneck the
ROADMAP's 1M-node rung named — a million small tuples, a million dict slots,
and a million-entry edge tuple cost seconds to build and hundreds of MB to
hold (measured: ~6 s / ~476 MB for ``star(1_000_000)`` on the dict path).

:class:`CompactTopology` stores the same undirected tree in two flat
``array('i')`` buffers — the classic index-offset CSR layout:

* ``adjacency`` — every node's neighbours, sorted, concatenated in node
  order (``2 * (n - 1)`` entries for a tree);
* ``offsets`` — ``n + 1`` cumulative positions; node ``v``'s neighbours are
  ``adjacency[offsets[v-1]:offsets[v]]``.

plus an optional ``parent`` array holding the orientation toward the token
holder (the paper's initial ``NEXT`` pointers), which the builders derive
analytically for their known shapes.  The whole 1M-node structure is ~16 MB
and the builders fill the buffers with C-level array operations
(``array(...)`` from ranges/chains, repetition, ``extend``) instead of
per-edge Python tuples.

The class subclasses :class:`~repro.topology.base.Topology` and serves the
same query API (``neighbors``/``degree``/``leaves``/``next_pointers``/
``edges``...) from the arrays, so every consumer — the
algorithms, the driver, the benchmarks — works unchanged.  Node ids are the
contiguous range ``1..n`` (what every compact builder produces); arbitrary
id sets stay on the dict-backed base class.

Construction does *not* re-run the generic tree validation: compact
topologies are built by the builders, which are correct by construction, and
the constructor checks the cheap structural invariants instead (offset
monotonicity, ``2 * (n - 1)`` adjacency entries).  Equality between the two
representations over the whole benchmark smoke matrix is CI-tested.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Optional, Tuple

try:  # Mapping moved out of ``collections`` in 3.10
    from collections.abc import Mapping
except ImportError:  # pragma: no cover
    from collections import Mapping  # type: ignore[attr-defined]

from repro.exceptions import TopologyError
from repro.topology.base import Topology


class _ParentView(Mapping):
    """Read-only ``node -> NEXT`` mapping served straight from a parent array.

    ``Topology.next_pointers`` returns a dict; at a million nodes that dict
    alone is ~80 MB of transient allocation.  This view answers the same
    ``pointers[node_id]`` lookups from the CSR parent array (sentinel ``0``
    means ``None`` — the paper's "NEXT = 0" sink), so orientation costs no
    per-node storage at all.
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


class CompactTopology(Topology):
    """A :class:`Topology` whose adjacency lives in flat CSR arrays.

    Args:
        n: number of nodes; ids are the contiguous range ``1..n``.
        adjacency: flat neighbour array — node ``v``'s neighbours, sorted
            ascending, occupy ``adjacency[offsets[v-1]:offsets[v]]``.
        offsets: ``n + 1`` cumulative degree prefix sums (``offsets[0] == 0``).
        token_holder: the node initially holding the token.
        parent: optional orientation toward ``token_holder`` — ``parent[v]``
            is ``v``'s neighbour on the path to the holder, ``0`` for the
            holder itself (slot 0 unused).  When present,
            :meth:`next_pointers` serves the default orientation from it with
            no BFS and no dict.
        diameter: optional exact diameter, exposed as :attr:`diameter_hint`
            so :func:`repro.topology.metrics.diameter` can skip its double
            BFS on shapes the builders know analytically.
    """

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
        if parent is not None and len(parent) != n + 1:
            raise TopologyError(
                f"parent array needs n + 1 slots, got {len(parent)} for n={n}"
            )
        # The base class is a frozen dataclass: bypass its __init__ (which
        # would materialise tuples and re-validate) and its __setattr__ guard.
        set_attr = object.__setattr__
        set_attr(self, "_n", n)
        set_attr(self, "_adj", adjacency)
        set_attr(self, "_off", offsets)
        set_attr(self, "token_holder", token_holder)
        set_attr(self, "_parent", parent)
        set_attr(self, "diameter_hint", diameter)

    # ------------------------------------------------------------------ #
    # dataclass-field compatibility
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> "range":
        """Node ids ``1..n`` as a range (O(1) membership, iteration order)."""
        return range(1, self._n + 1)

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical ``(low, high)`` edge tuples, materialised on demand.

        O(n) allocation — meant for tests and small-scale introspection, not
        for the million-node hot path (which never needs explicit edges).
        """
        adj = self._adj
        off = self._off
        return tuple(
            (v, w)
            for v in range(1, self._n + 1)
            for w in adj[off[v - 1]:off[v]]
            if v < w
        )

    # ------------------------------------------------------------------ #
    # queries (served from the arrays)
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self._n

    def neighbors(self, node: int) -> Tuple[int, ...]:
        if not 1 <= node <= self._n:
            raise TopologyError(f"unknown node {node}")
        return tuple(self._adj[self._off[node - 1]:self._off[node]])

    def degree(self, node: int) -> int:
        if not 1 <= node <= self._n:
            raise TopologyError(f"unknown node {node}")
        return self._off[node] - self._off[node - 1]

    def leaves(self) -> Tuple[int, ...]:
        if self._n == 1:
            return tuple(self.nodes)
        off = self._off
        return tuple(
            v for v in range(1, self._n + 1) if off[v] - off[v - 1] == 1
        )

    def next_pointers(self):
        """Initial ``NEXT`` orientation toward the token holder.

        With a builder-supplied parent array this is a :class:`_ParentView` —
        a lazy mapping over the array, no per-node dict.  Without one (a
        re-rooted copy) it is an iterative DFS over the CSR arrays producing
        an ordinary dict.
        """
        root = self.token_holder
        if self._parent is not None:
            return _ParentView(self._parent, self._n)
        adj = self._adj
        off = self._off
        pointers: Dict[int, Optional[int]] = {root: None}
        frontier = [root]
        while frontier:
            current = frontier.pop()
            for neighbour in adj[off[current - 1]:off[current]]:
                if neighbour not in pointers:
                    pointers[neighbour] = current
                    frontier.append(neighbour)
        return pointers

    def with_token_holder(self, node: int) -> "CompactTopology":
        if not 1 <= node <= self._n:
            raise TopologyError(f"unknown node {node}")
        if node == self.token_holder:
            return self
        # The arrays are immutable in practice and shared; only the
        # orientation changes, and the stored parent array points at the old
        # holder, so the re-rooted copy drops it (next_pointers falls back
        # to the DFS path).
        return CompactTopology(
            n=self._n,
            adjacency=self._adj,
            offsets=self._off,
            token_holder=node,
            parent=None,
            diameter=self.diameter_hint,
        )

    def describe(self) -> str:
        return (
            f"Topology(n={self._n}, edges={self._n - 1 if self._n > 1 else 0}, "
            f"token_holder={self.token_holder})"
        )

    def __repr__(self) -> str:
        return (
            f"CompactTopology(n={self._n}, token_holder={self.token_holder})"
        )


def csr_from_edges(n: int, edges) -> Tuple[array, array]:
    """Build ``(adjacency, offsets)`` CSR arrays from an edge list.

    Three passes over the edges (degree count, fill, per-bucket sort), all
    index arithmetic on flat arrays.  Used by builders whose edge set has no
    exploitable closed form (random trees); the regular shapes write their
    arrays directly.
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
