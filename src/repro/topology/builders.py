"""Constructors for the topologies discussed in the paper.

Chapter 6 compares a straight **line** (the worst topology), the
**centralized** topology (one centre, all other nodes leaves — what this
module calls :func:`star`, the best topology), and Raymond's **radiating
star**.  The worked examples use two specific small trees which are provided
verbatim as :func:`paper_figure2_topology` and :func:`paper_figure6_topology`.

Every family builder fills the :class:`~repro.topology.base.Topology` CSR
arrays directly.  The regular shapes (:func:`line`, :func:`star`,
:func:`radiating_star`, :func:`balanced_tree`) write adjacency, offsets and
the orientation toward the holder in closed form, with C-level array fills —
what makes the 100k and 1M benchmark tiers constructible in sub-second
topology time and ~16 MB; :func:`random_tree` decodes an edge list and goes
through :meth:`~repro.topology.base.Topology.from_edges`.  Tier-1 compares
each closed form query by query against ``from_edges`` of its explicit edge
list.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, repeat
from typing import List, Optional, Tuple

from repro.exceptions import TopologyError
from repro.sim.rng import SeededRNG
from repro.topology.base import Topology


def _default_holder(n: int, token_holder: Optional[int]) -> int:
    if token_holder is None:
        return 1
    if not 1 <= token_holder <= n:
        raise TopologyError(f"token holder {token_holder} is not one of the nodes")
    return token_holder


def line(n: int, *, token_holder: Optional[int] = None) -> Topology:
    """A straight line ``1 - 2 - ... - n`` (the paper's worst topology).

    Args:
        n: number of nodes (``n >= 1``).
        token_holder: initial token holder; defaults to node 1.
    """
    if n < 1:
        raise TopologyError(f"need at least one node, got {n}")
    holder = _default_holder(n, token_holder)
    if n == 1:
        adjacency = array("i")
        offsets = array("i", (0, 0))
    else:
        # Node 1: [2]; node i: [i-1, i+1]; node n: [n-1] — the interior
        # pairs interleave two ranges, all consumed by the array
        # constructor in C.
        adjacency = array(
            "i",
            chain(
                (2,),
                chain.from_iterable(zip(range(1, n - 1), range(3, n + 1))),
                (n - 1,),
            ),
        )
        offsets = array("i", chain((0,), range(1, 2 * n - 2, 2), (2 * n - 2,)))
    # Orientation toward the holder: nodes left of it point right and
    # vice versa (slot 0 unused, holder slot 0 = sink).
    parent = array("i", chain((0,), range(2, holder + 1), (0,), range(holder, n)))
    return Topology(
        n=n,
        adjacency=adjacency,
        offsets=offsets,
        token_holder=holder,
        parent=parent,
        diameter=n - 1,
    )


def star(n: int, *, token_holder: Optional[int] = None) -> Topology:
    """The centralized topology: node 1 connected to every other node.

    This is the paper's *best* topology (Figure 8): its diameter is 2, so the
    worst case is 3 messages per critical-section entry.

    Args:
        n: number of nodes (``n >= 1``).
        token_holder: initial token holder; defaults to the centre, node 1.
    """
    if n < 1:
        raise TopologyError(f"need at least one node, got {n}")
    holder = _default_holder(n, token_holder)
    hub = array("i", (1,))
    adjacency = array("i", range(2, n + 1)) + hub * (n - 1)
    offsets = array("i", chain((0,), range(n - 1, 2 * n - 1)))
    parent = hub * (n + 1)
    parent[0] = 0
    parent[1] = 0
    if holder != 1:
        parent[1] = holder
        parent[holder] = 0
    diameter = 0 if n == 1 else (1 if n == 2 else 2)
    return Topology(
        n=n,
        adjacency=adjacency,
        offsets=offsets,
        token_holder=holder,
        parent=parent,
        diameter=diameter,
    )


def radiating_star(arms: int, arm_length: int) -> Topology:
    """Raymond's radiating star: a hub with ``arms`` paths of ``arm_length`` nodes.

    Raymond's paper recommends this topology; Neilsen's analysis shows that
    collapsing the arms to length one (i.e. the plain :func:`star`) is better.
    Node 1 is the hub and holds the token; arm nodes are numbered one arm
    after the other, outward along each arm.
    """
    if arms < 1 or arm_length < 1:
        raise TopologyError("radiating star needs at least one arm of length one")
    n = 1 + arms * arm_length
    starts = range(2, n + 1, arm_length)
    adjacency = array("i", starts)
    parent = array("i", (0, 0))
    for start in starts:
        # Each arm node's neighbour toward the hub, which is also its NEXT;
        # every node but the tip lists it before the one farther out.
        inward = array("i", chain((1,), range(start, start + arm_length - 1)))
        parent.extend(inward)
        adjacency.extend(chain.from_iterable(zip(inward, range(start + 1, start + arm_length))))
        adjacency.append(inward[-1])
    arm_degrees = (2,) * (arm_length - 1) + (1,)
    offsets = array(
        "i", accumulate(chain((0, arms), chain.from_iterable(repeat(arm_degrees, arms))))
    )
    return Topology(
        n=n,
        adjacency=adjacency,
        offsets=offsets,
        token_holder=1,
        parent=parent,
        diameter=arm_length if arms == 1 else 2 * arm_length,
    )


def balanced_tree(branching: int, depth: int) -> Topology:
    """A balanced tree with the given branching factor and depth.

    Depth 0 is a single node; depth 1 with branching ``b`` is a star on
    ``b + 1`` nodes.  Node 1 is the root and holds the token, and children
    are numbered level by level (:meth:`~repro.topology.base.Topology.with_token_holder`
    re-roots the orientation).

    Args:
        branching: children per internal node (``>= 1``).
        depth: tree depth (``>= 0``).
    """
    if branching < 1:
        raise TopologyError(f"branching factor must be >= 1, got {branching}")
    if depth < 0:
        raise TopologyError(f"depth must be >= 0, got {depth}")
    b = branching
    n = depth + 1 if b == 1 else (b ** (depth + 1) - 1) // (b - 1)
    leaf_count = b ** depth
    internal = n - leaf_count
    adjacency = array("i")
    if depth > 0:
        adjacency.extend(range(2, b + 2))
        append = adjacency.append
        extend = adjacency.extend
        # Level-order numbering gives every node's parent and children in
        # closed form: one pass, the children ranges extended in C.
        for p in range(2, n + 1):
            append((p - 2) // b + 1)
            if p <= internal:
                first = (p - 1) * b + 2
                extend(range(first, first + b))
        offsets = array(
            "i",
            accumulate(
                chain((0, b), repeat(b + 1, internal - 1), repeat(1, leaf_count))
            ),
        )
    else:
        offsets = array("i", (0, 0))
    # In a complete tree every internal node has exactly b children, so
    # the parent sequence for nodes 2..n repeats each internal id b times.
    parent = array(
        "i",
        chain(
            (0, 0),
            chain.from_iterable(repeat(v, b) for v in range(1, internal + 1)),
        ),
    )
    return Topology(
        n=n,
        adjacency=adjacency,
        offsets=offsets,
        token_holder=1,
        parent=parent,
        diameter=depth if b == 1 else 2 * depth,
    )


def _prufer_edges(n: int, rng: SeededRNG) -> List[Tuple[int, int]]:
    """Decode a random Prüfer sequence into a labelled tree's edge list."""
    prufer = [rng.randint(1, n) for _ in range(n - 2)]
    degree = {node: 1 for node in range(1, n + 1)}
    for value in prufer:
        degree[value] += 1

    edges: List[Tuple[int, int]] = []
    remaining = sorted(node for node in range(1, n + 1) if degree[node] == 1)
    for value in prufer:
        leaf = remaining.pop(0)
        edges.append((leaf, value))
        degree[value] -= 1
        if degree[value] == 1:
            # Keep the candidate list sorted so the construction is canonical.
            remaining.append(value)
            remaining.sort()
    # The two nodes left with degree one after consuming the Prüfer sequence
    # are joined by the final edge.
    leftovers = sorted(remaining)
    edges.append((leftovers[0], leftovers[1]))
    return edges


def random_tree(n: int, *, seed: int = 0, token_holder: Optional[int] = None) -> Topology:
    """A uniformly random labelled tree on ``n`` nodes (random Prüfer sequence).

    Deterministic for a given ``seed``.  Useful for property-based tests and
    for showing that the algorithm's correctness does not depend on a
    particular tree shape.
    """
    if n < 1:
        raise TopologyError(f"need at least one node, got {n}")
    holder = _default_holder(n, token_holder)
    if n <= 2:
        edges = [(1, 2)] if n == 2 else []
    else:
        edges = _prufer_edges(n, SeededRNG(seed, label="random-tree"))
    return Topology.from_edges(edges, token_holder=holder)


def paper_figure2_topology() -> Topology:
    """The six-node straight line used by the paper's Chapter 3 example.

    Node 5 initially holds the token, and node 3's request travels
    ``3 -> 4 -> 5`` exactly as in Figure 2.
    """
    return line(6, token_holder=5)


def paper_figure6_topology() -> Topology:
    """The six-node tree of the complete example in Chapter 4 (Figure 6).

    The initial ``NEXT`` values in Figure 6a (1→2, 2→3, 4→3, 5→2, 6→4, node 3
    the sink) imply the undirected edges 1–2, 2–3, 3–4, 2–5, 4–6 with node 3
    holding the token.
    """
    return Topology.from_edges(
        [(1, 2), (2, 3), (3, 4), (2, 5), (4, 6)],
        token_holder=3,
    )
