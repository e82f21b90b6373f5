"""Exhaustive small-scope exploration of the bare protocol kernel.

No engine and no asyncio: :class:`~repro.core.node.DagNodeCore` instances
whose ``network`` is a stub that appends to one FIFO list per directed channel
(the kernel is slotted and leaves ``network`` to its driver, so
:class:`ListNode` adds the one slot it is kept in).  For every
labelled tree with 2 <= n <= 4 nodes, every initial token holder and every
non-empty set of requesters (1029 configurations), *all* interleavings of

* a requester that has not asked yet issues its request,
* the head message of any non-empty channel is delivered,
* the node in its critical section releases,

are explored by depth-first search over memoised states, checking the
paper's Chapter 5 claims in every state (mutual exclusion, one token, NEXT
acyclic) and in every terminal state (every requester entered exactly once
and nobody is left requesting — no deadlock, no starvation).

n = 5 is ~1.5e7 states (minutes); it stays out of tier-1.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.messages import Privilege
from repro.core.node import DagNodeCore
from repro.topology.base import Topology


class ListNode(DagNodeCore):
    __slots__ = ("network",)


class ListNetwork:
    """The kernel's ``network``: a send appends to its directed channel's list."""

    def __init__(self, channels):
        self.channels = channels

    def send(self, sender, receiver, message):
        self.channels.setdefault((sender, receiver), []).append(message)


def labelled_trees(n):
    """Every tree on nodes 1..n, as edge lists (Cayley: n ** (n - 2) of them)."""
    pairs = list(combinations(range(1, n + 1), 2))
    for edges in combinations(pairs, n - 1):
        reached, frontier = {1}, [1]
        while frontier:
            here = frontier.pop()
            for a, b in edges:
                there = b if a == here else a if b == here else None
                if there is not None and there not in reached:
                    reached.add(there)
                    frontier.append(there)
        if len(reached) == n:
            yield edges


def configurations():
    for n in (2, 3, 4):
        ids = range(1, n + 1)
        for edges in labelled_trees(n):
            for holder in ids:
                pointers = Topology.from_edges(edges, holder).next_pointers()
                for size in ids:
                    for requesters in combinations(ids, size):
                        yield pointers, holder, frozenset(requesters)


def freeze(nodes, channels, pending):
    """A hashable state: the per-node rows, the channel contents, who has yet to ask."""
    rows = tuple(
        (node.holding, node.next_node, node.follow, node.requesting,
         node.in_critical_section, node.cs_entries)
        for node in nodes.values()
    )
    wires = tuple(sorted((ch, tuple(queue)) for ch, queue in channels.items() if queue))
    return rows, wires, pending


def thaw(state):
    """Fresh kernel instances (and the channels their ``network`` feeds) in ``state``."""
    rows, wires, _ = state
    channels = {ch: list(queue) for ch, queue in wires}
    network = ListNetwork(channels)
    nodes = {}
    for node_id, row in enumerate(rows, start=1):
        node = ListNode(node_id, holding=True)
        (node.holding, node.next_node, node.follow, node.requesting,
         node.in_critical_section, node.cs_entries) = row
        node.network = network
        nodes[node_id] = node
    return nodes, channels


def successors(state):
    """Every state one enabled action away from ``state``."""
    rows, wires, pending = state
    for node_id in sorted(pending):
        nodes, channels = thaw(state)
        nodes[node_id].request_cs()
        yield freeze(nodes, channels, pending - {node_id})
    for channel, _ in wires:
        nodes, channels = thaw(state)
        source, target = channel
        nodes[target].on_message(source, channels[channel].pop(0))
        yield freeze(nodes, channels, pending)
    for node_id, row in enumerate(rows, start=1):
        if row[4]:
            nodes, channels = thaw(state)
            nodes[node_id].release_cs()
            yield freeze(nodes, channels, pending)


def check_safety(state):
    nodes, channels = thaw(state)
    assert sum(node.in_critical_section for node in nodes.values()) <= 1, state
    tokens = sum(node.has_token() for node in nodes.values()) + sum(
        message == Privilege() for queue in channels.values() for message in queue
    )
    assert tokens == 1, state
    for start in nodes:
        seen, here = set(), start
        while here is not None:
            assert here not in seen, f"NEXT cycle through {here}: {state}"
            seen.add(here)
            here = nodes[here].next_node


def check_terminal(state, requesters):
    nodes, channels = thaw(state)
    assert not state[2] and not channels, state
    for node_id, node in nodes.items():
        assert not node.requesting and not node.in_critical_section, state
        assert node.cs_entries == (1 if node_id in requesters else 0), state


def explore(pointers, holder, requesters):
    """DFS from one initial configuration; returns (states, terminal states)."""
    nodes = {}
    for node_id, next_node in sorted(pointers.items()):
        nodes[node_id] = ListNode(
            node_id, holding=(node_id == holder), next_node=next_node
        )
    initial = freeze(nodes, {}, requesters)
    seen, stack, terminals = {initial}, [initial], 0
    while stack:
        state = stack.pop()
        check_safety(state)
        following = list(successors(state))
        if not following:
            check_terminal(state, requesters)
            terminals += 1
        for successor in following:
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return len(seen), terminals


def test_there_are_1029_configurations():
    assert sum(1 for _ in labelled_trees(3)) == 3
    assert sum(1 for _ in labelled_trees(4)) == 16
    assert sum(1 for _ in configurations()) == 1029


def test_every_interleaving_of_every_small_configuration_is_safe_and_live():
    states = 0
    for pointers, holder, requesters in configurations():
        explored, terminals = explore(pointers, holder, requesters)
        assert terminals >= 1
        states += explored
    # Not vacuous: the four-node cells alone interleave tens of thousands of
    # ways (about 1.5e5 states in all).
    assert states > 100_000
