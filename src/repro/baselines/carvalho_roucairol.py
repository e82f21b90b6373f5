"""Carvalho and Roucairol's optimisation of Ricart–Agrawala (Section 2.3).

A node that has received a REPLY from some peer keeps that peer's implicit
permission until the peer requests again: repeated entries by the same node
then need no messages at all, and a new request only needs to be sent to the
peers whose permission has been lost.  The number of messages per entry
therefore ranges from 0 to ``2 * (N - 1)``.

The subtle case is a requesting node that holds a peer's cached permission and
then receives a higher-priority request from that peer: it must surrender the
permission (send a REPLY) *and* re-issue its own REQUEST to that peer, since
its original broadcast never included it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.baselines.base import MutexNodeBase, MutexSystem, registry
from repro.baselines.ricart_agrawala import RARequest, RAReply

Timestamp = Tuple[int, int]


class CarvalhoRoucairolNode(MutexNodeBase):
    """One participant of the Carvalho–Roucairol algorithm."""

    _MESSAGE_HANDLERS = {RARequest: "_on_request", RAReply: "_on_reply"}

    def __init__(self, node_id: int, network, *, all_nodes) -> None:
        super().__init__(node_id, network)
        self.all_nodes = tuple(all_nodes)
        self.others = tuple(n for n in self.all_nodes if n != node_id)
        self.clock = 0
        self.my_request: Optional[Timestamp] = None
        # Peers whose permission we currently hold (REPLY received and not yet
        # surrendered by replying to a request of theirs).
        self.authorized: Set[int] = set()
        self.awaiting_reply: Set[int] = set()
        self.deferred: Set[int] = set()

    # ------------------------------------------------------------------ #
    # requests and releases
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        self._note_request()
        self.clock += 1
        self.my_request = (self.clock, self.node_id)
        missing = [other for other in self.others if other not in self.authorized]
        self.awaiting_reply = set(missing)
        for other in missing:
            self.network.send(self.node_id, other,
                              RARequest(clock=self.my_request[0], origin=self.node_id))
        if not self.awaiting_reply:
            # All permissions are cached from earlier entries: free re-entry.
            self._enter_critical_section()

    def release_cs(self) -> None:
        self._note_exit()
        self.my_request = None
        deferred, self.deferred = self.deferred, set()
        for other in sorted(deferred):
            # Surrendering the permission: the peer now holds ours.
            self.authorized.discard(other)
            self.network.send(self.node_id, other, RAReply(origin=self.node_id))

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _on_request(self, sender: int, message: RARequest) -> None:
        self.clock = max(self.clock, message.clock) + 1
        their_request = (message.clock, message.origin)
        if self.in_critical_section:
            self.deferred.add(message.origin)
            return
        if self.my_request is not None:
            if self.my_request < their_request:
                # Our outstanding request has priority: hold their reply.
                self.deferred.add(message.origin)
                return
            # Their request has priority.  Give up their cached permission (if
            # we held it) and make sure our own request reaches them, because
            # the broadcast at request time skipped authorized peers.
            must_rerequest = message.origin in self.authorized or (
                message.origin not in self.awaiting_reply
            )
            self.authorized.discard(message.origin)
            self.network.send(self.node_id, message.origin, RAReply(origin=self.node_id))
            if must_rerequest and message.origin not in self.awaiting_reply:
                self.awaiting_reply.add(message.origin)
                self.network.send(
                    self.node_id, message.origin,
                    RARequest(clock=self.my_request[0], origin=self.node_id),
                )
            return
        # Idle: reply immediately and surrender any cached permission.
        self.authorized.discard(message.origin)
        self.network.send(self.node_id, message.origin, RAReply(origin=self.node_id))

    def _on_reply(self, sender: int, message: RAReply) -> None:
        self.authorized.add(message.origin)
        self.awaiting_reply.discard(message.origin)
        if self.requesting and not self.awaiting_reply:
            self._enter_critical_section()


@registry.register
class CarvalhoRoucairolSystem(MutexSystem):
    """Carvalho–Roucairol's algorithm on a fully connected logical network."""

    algorithm_name = "carvalho-roucairol"
    uses_topology_edges = False
    #: Cached permissions help steady state, but worst case stays 2(N-1).
    max_recommended_nodes = 1_000
    storage_class = "linear"
    token_based = False
    storage_description = (
        "per node: logical clock, cached-permission set, pending-reply set, "
        "deferred-reply set (each up to N - 1 entries)"
    )

    def _create_nodes(self) -> Dict[int, CarvalhoRoucairolNode]:
        return {
            node_id: CarvalhoRoucairolNode(node_id, self.network, all_nodes=self.topology.nodes)
            for node_id in self.topology.nodes
        }
