"""Ricart and Agrawala's algorithm (Section 2.2).

The ACKNOWLEDGE and RELEASE messages of Lamport's algorithm are folded into a
single REPLY: a node replies to a request immediately unless it is inside its
critical section or is itself requesting with higher priority, in which case
the reply is deferred until it leaves the critical section.  A requester
enters once it has collected replies from everyone else, giving the paper's
``2 * (N - 1)`` messages per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.baselines.base import MutexNodeBase, MutexSystem, registry
from repro.exceptions import ProtocolError

Timestamp = Tuple[int, int]


@dataclass(frozen=True)
class RARequest:
    """Broadcast request with the requester's clock value."""

    clock: int
    origin: int

    type_name = "REQUEST"

    def payload_size(self) -> int:
        return 2

    def describe(self) -> str:
        return f"REQUEST(c={self.clock}, from={self.origin})"


@dataclass(frozen=True)
class RAReply:
    """Permission from one node (combines Lamport's ACK and RELEASE)."""

    origin: int

    type_name = "REPLY"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"REPLY(from={self.origin})"


class RicartAgrawalaNode(MutexNodeBase):
    """One participant of the Ricart–Agrawala algorithm."""

    _MESSAGE_HANDLERS = {RARequest: "_on_request", RAReply: "_on_reply"}

    def __init__(self, node_id: int, network, *, all_nodes) -> None:
        super().__init__(node_id, network)
        self.all_nodes = tuple(all_nodes)
        self.others = tuple(n for n in self.all_nodes if n != node_id)
        self.clock = 0
        self.my_request: Optional[Timestamp] = None
        self.awaiting_reply: Set[int] = set()
        self.deferred: Set[int] = set()

    def request_cs(self) -> None:
        self._note_request()
        self.clock += 1
        self.my_request = (self.clock, self.node_id)
        self.awaiting_reply = set(self.others)
        for other in self.others:
            self.network.send(self.node_id, other,
                              RARequest(clock=self.my_request[0], origin=self.node_id))
        if not self.awaiting_reply:
            # Single-node system: nothing to wait for.
            self._enter_critical_section()

    def release_cs(self) -> None:
        self._note_exit()
        self.my_request = None
        deferred, self.deferred = self.deferred, set()
        for other in sorted(deferred):
            self.network.send(self.node_id, other, RAReply(origin=self.node_id))

    def _on_request(self, sender: int, message: RARequest) -> None:
        self.clock = max(self.clock, message.clock) + 1
        their_request = (message.clock, message.origin)
        defer = False
        if self.in_critical_section:
            defer = True
        elif self.my_request is not None and self.my_request < their_request:
            # We are requesting with higher priority (smaller timestamp).
            defer = True
        if defer:
            self.deferred.add(message.origin)
        else:
            self.network.send(self.node_id, message.origin, RAReply(origin=self.node_id))

    def _on_reply(self, sender: int, message: RAReply) -> None:
        if message.origin not in self.awaiting_reply:
            raise ProtocolError(
                f"node {self.node_id} received an unexpected REPLY from {message.origin}"
            )
        self.awaiting_reply.discard(message.origin)
        if self.requesting and not self.awaiting_reply:
            self._enter_critical_section()


@registry.register
class RicartAgrawalaSystem(MutexSystem):
    """Ricart–Agrawala's algorithm on a fully connected logical network."""

    algorithm_name = "ricart-agrawala"
    uses_topology_edges = False
    #: 2(N-1) messages per entry bounds the interesting size range like
    #: Lamport's scheme.
    max_recommended_nodes = 1_000
    storage_class = "linear"
    token_based = False
    storage_description = (
        "per node: logical clock, pending-reply set, deferred-reply set "
        "(each up to N - 1 entries)"
    )

    def _create_nodes(self) -> Dict[int, RicartAgrawalaNode]:
        return {
            node_id: RicartAgrawalaNode(node_id, self.network, all_nodes=self.topology.nodes)
            for node_id in self.topology.nodes
        }
