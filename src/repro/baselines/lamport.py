"""Lamport's distributed mutual exclusion algorithm (Section 2.1).

Every node keeps a logical clock and a copy of the request queue.  A request
is broadcast to all other nodes, which acknowledge it; the requester enters
its critical section when its own request is the earliest in its queue *and*
it has heard something later from every other node.  Releases are broadcast
too, giving the paper's quoted upper bound of ``3 * (N - 1)`` messages per
critical-section entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.base import MutexNodeBase, MutexSystem, registry

Timestamp = Tuple[int, int]  # (logical clock value, node id) — totally ordered


@dataclass(frozen=True)
class LamportRequest:
    """Broadcast request carrying the requester's clock value."""

    clock: int
    origin: int

    type_name = "REQUEST"

    def payload_size(self) -> int:
        return 2

    def describe(self) -> str:
        return f"REQUEST(c={self.clock}, from={self.origin})"


@dataclass(frozen=True)
class LamportAck:
    """Acknowledgement of a request (the paper's ACKNOWLEDGE message)."""

    clock: int
    origin: int

    type_name = "ACKNOWLEDGE"

    def payload_size(self) -> int:
        return 2

    def describe(self) -> str:
        return f"ACK(c={self.clock}, from={self.origin})"


@dataclass(frozen=True)
class LamportRelease:
    """Broadcast release removing the sender's request from every queue."""

    clock: int
    origin: int

    type_name = "RELEASE"

    def payload_size(self) -> int:
        return 2

    def describe(self) -> str:
        return f"RELEASE(c={self.clock}, from={self.origin})"


class LamportNode(MutexNodeBase):
    """One participant of Lamport's algorithm."""

    _MESSAGE_HANDLERS = {
        LamportRequest: "_on_request",
        LamportAck: "_on_ack",
        LamportRelease: "_on_release",
    }

    def __init__(self, node_id: int, network, *, all_nodes) -> None:
        super().__init__(node_id, network)
        self.all_nodes = tuple(all_nodes)
        self.others = tuple(n for n in self.all_nodes if n != node_id)
        self.clock = 0
        # The distributed queue: latest outstanding request per node.
        self.queue: Dict[int, Timestamp] = {}
        # Timestamp of the most recent message received from each other node.
        self.last_heard: Dict[int, Timestamp] = {}
        self.my_request: Optional[Timestamp] = None

    # ------------------------------------------------------------------ #
    # requests and releases
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        self._note_request()
        self.clock += 1
        self.my_request = (self.clock, self.node_id)
        self.queue[self.node_id] = self.my_request
        for other in self.others:
            self.network.send(self.node_id, other,
                              LamportRequest(clock=self.my_request[0], origin=self.node_id))
        self._try_enter()

    def release_cs(self) -> None:
        self._note_exit()
        self.queue.pop(self.node_id, None)
        self.my_request = None
        self.clock += 1
        for other in self.others:
            self.network.send(self.node_id, other,
                              LamportRelease(clock=self.clock, origin=self.node_id))

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _on_request(self, sender: int, message: LamportRequest) -> None:
        self._advance_clock(message.clock)
        self.queue[message.origin] = (message.clock, message.origin)
        self._heard(message.origin, message.clock)
        self.clock += 1
        self.network.send(self.node_id, message.origin,
                          LamportAck(clock=self.clock, origin=self.node_id))
        self._try_enter()

    def _on_ack(self, sender: int, message: LamportAck) -> None:
        self._advance_clock(message.clock)
        self._heard(message.origin, message.clock)
        self._try_enter()

    def _on_release(self, sender: int, message: LamportRelease) -> None:
        self._advance_clock(message.clock)
        self.queue.pop(message.origin, None)
        self._heard(message.origin, message.clock)
        self._try_enter()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _advance_clock(self, received_clock: int) -> None:
        self.clock = max(self.clock, received_clock) + 1

    def _heard(self, origin: int, clock: int) -> None:
        stamp = (clock, origin)
        if origin not in self.last_heard or self.last_heard[origin] < stamp:
            self.last_heard[origin] = stamp

    def _try_enter(self) -> None:
        if not self.requesting or self.in_critical_section or self.my_request is None:
            return
        # Condition 1: our request is the earliest in our copy of the queue.
        if min(self.queue.values()) != self.my_request:
            return
        # Condition 2: we have heard something later than our request from
        # every other node (so no earlier request can still be in flight).
        for other in self.others:
            heard = self.last_heard.get(other)
            if heard is None or heard < self.my_request:
                return
        self._enter_critical_section()


@registry.register
class LamportSystem(MutexSystem):
    """Lamport's algorithm on a fully connected logical network."""

    algorithm_name = "lamport"
    uses_topology_edges = False
    #: 3(N-1) messages per entry: past ~1k nodes a cell measures broadcast
    #: cost, not the algorithm, so the matrices stop admitting it there.
    max_recommended_nodes = 1_000
    storage_class = "linear"
    token_based = False
    storage_description = (
        "per node: logical clock, request queue with one entry per node, "
        "last-heard timestamp per node"
    )

    def _create_nodes(self) -> Dict[int, LamportNode]:
        return {
            node_id: LamportNode(node_id, self.network, all_nodes=self.topology.nodes)
            for node_id in self.topology.nodes
        }
