"""Token regeneration for the DAG protocol after a token-losing fault.

The paper assumes the token cannot be lost (reliable network, no failures),
so it offers no recovery procedure.  This module supplies the minimal one,
once, for every driver of :class:`~repro.core.node.DagNodeCore`: the
simulator's :class:`~repro.sim.faults.FaultController` calls
:func:`regenerate_token` when it has *proved* the token lost — no live node
has it and no PRIVILEGE is in flight — and the live runtime calls it from
:meth:`LocalCluster.regenerate_token <repro.runtime.cluster.LocalCluster
.regenerate_token>` (a lock-service key taken over from a dead shard).  It
mints a replacement and rebuilds a consistent request DAG among the live
nodes.

The procedure is deliberately centralized (the caller has a global view; a
distributed election is out of scope for the reproduction) but preserves the
protocol's invariants from the first post-recovery event:

1. **Fence the network — the caller's step.**  Every in-flight message
   predates the loss; any of them could resurrect stale state — worst of all
   a REQUEST that later pulls a *second* token toward a node the new DAG
   knows nothing about.  The fault injector's ``fence()`` (simulator) or
   the transport's ``fence()`` (runtime: it drops what it still has queued
   for a live node) discards them all *before* this function
   runs, so the proof obligation "at most one token" holds by
   construction; the function itself still refuses to run while a live node
   has the token.
2. **Elect a holder deterministically**: the lowest-id live node with an
   outstanding request, or the lowest-id live node if none are requesting.
3. **Reorient the DAG**: every live node's NEXT points at the new holder and
   FOLLOW is cleared — exactly the shape of a freshly initialized system
   (Theorem 1's acyclicity is immediate: the graph is a star into the sink).
4. **Grant or hold**: a requesting holder enters its CS directly; an idle
   holder sets HOLDING.
5. **Re-issue lost requests**: every other live requesting node re-sends its
   own REQUEST, in node-id order.  Their FOLLOW chains then rebuild through
   the normal P2 handling — no special-case delivery logic exists anywhere
   downstream of this function.

Crashed nodes are left untouched: their state is stale by definition, and
the reoriented live DAG routes around them.  A node that restarts later
rejoins with its pre-crash pointers, which is safe (its messages route
toward the live sink eventually) though possibly suboptimal — matching the
crash-stop model's "restart restores participation only" contract.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.core.messages import Request
from repro.exceptions import ProtocolError


def regenerate_token(
    nodes: Mapping[int, Any], *, crashed=frozenset()
) -> Dict[str, Any]:
    """Mint a replacement token among ``nodes`` after a proven token loss.

    Args:
        nodes: the system's ``{node_id: node}`` mapping — simulator nodes
            (objects or column views) or live
            :class:`~repro.runtime.node_runtime.AsyncDagNode` agents.
        crashed: ids of the nodes that are down; they are left untouched.

    Returns:
        A dict with the election outcome: ``new_holder``,
        ``granted_immediately`` (the holder was itself requesting and entered
        its CS directly), and ``reissued`` (how many live requests were
        re-sent).

    Raises:
        ProtocolError: if every node is crashed, or a live node still has the
            token (minting another would break "at most one token").  No
            state is touched in either case.
    """
    live = sorted(
        (node for node_id, node in nodes.items() if node_id not in crashed),
        key=lambda node: node.node_id,
    )
    if not live:
        raise ProtocolError("cannot regenerate a token: every node is crashed")
    holders = [node.node_id for node in live if node.has_token()]
    if holders:
        raise ProtocolError(
            f"token is not lost: live node(s) {holders} still have it"
        )

    # Step 2.
    requesting = [node for node in live if node.requesting]
    holder = requesting[0] if requesting else live[0]

    # Step 3: star DAG into the new sink.
    for node in live:
        if node is holder:
            continue
        node.next_node = holder.node_id
        node.follow = None
    holder.next_node = None
    holder.follow = None

    # Step 4: the grant is P1's wait point firing as if the PRIVILEGE arrived.
    if holder.requesting:
        holder.requesting = False
        holder._enter_critical_section()
        granted = True
    else:
        holder.holding = True
        granted = False

    # Step 5: the re-sent REQUESTs are sent after the fence, so they are
    # delivered normally and chain FOLLOW pointers through P2.
    reissued = 0
    for node in requesting:
        if node is holder:
            continue
        node.next_node = None
        node.network.send(node.node_id, holder.node_id, Request(node.node_id, node.node_id))
        reissued += 1

    return {
        "new_holder": holder.node_id,
        "granted_immediately": granted,
        "reissued": reissued,
    }
