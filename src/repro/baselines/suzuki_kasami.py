"""Suzuki and Kasami's broadcast token algorithm (Section 2.4).

A single explicit token circulates.  A node without the token broadcasts a
sequence-numbered REQUEST to everyone; the token records, per node, the
sequence number of the last request it satisfied, so the holder can tell which
received requests are still outstanding.  Either 0 messages (already holding
the token) or exactly ``N`` messages (``N - 1`` requests plus one PRIVILEGE)
are needed per entry — the paper's quoted bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.base import MutexNodeBase, MutexSystem, registry
from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class SKRequest:
    """Broadcast token request: ``REQUEST(origin, sequence)``."""

    origin: int
    sequence: int

    type_name = "REQUEST"

    def payload_size(self) -> int:
        return 2

    def describe(self) -> str:
        return f"REQUEST(from={self.origin}, seq={self.sequence})"


@dataclass(frozen=True)
class SKPrivilege:
    """The token: last-granted sequence numbers plus the token's queue.

    Unlike the DAG algorithm's PRIVILEGE message, this token carries state
    whose size grows with ``N`` — exactly the storage-overhead difference
    Section 6.4 highlights.
    """

    last_granted: Tuple[Tuple[int, int], ...]
    queue: Tuple[int, ...]

    type_name = "PRIVILEGE"

    def payload_size(self) -> int:
        return 2 * len(self.last_granted) + len(self.queue)

    def describe(self) -> str:
        return f"PRIVILEGE(queue={list(self.queue)})"


class SuzukiKasamiNode(MutexNodeBase):
    """One participant of the Suzuki–Kasami algorithm."""

    _MESSAGE_HANDLERS = {SKRequest: "_on_request", SKPrivilege: "_on_privilege"}

    def __init__(
        self,
        node_id: int,
        network,
        *,
        all_nodes,
        holds_token: bool,
    ) -> None:
        super().__init__(node_id, network)
        self.all_nodes = tuple(all_nodes)
        self.others = tuple(n for n in self.all_nodes if n != node_id)
        # Highest request sequence number known per node (the RN array).
        self.request_numbers: Dict[int, int] = {n: 0 for n in self.all_nodes}
        self.has_token = holds_token
        # Token state, meaningful only while has_token is True (the LN array
        # and the token queue).
        self.token_last_granted: Dict[int, int] = (
            {n: 0 for n in self.all_nodes} if holds_token else {}
        )
        self.token_queue: List[int] = []

    # ------------------------------------------------------------------ #
    # requests and releases
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        self._note_request()
        if self.has_token:
            self._enter_critical_section()
            return
        self.request_numbers[self.node_id] += 1
        sequence = self.request_numbers[self.node_id]
        for other in self.others:
            self.network.send(self.node_id, other,
                              SKRequest(origin=self.node_id, sequence=sequence))

    def release_cs(self) -> None:
        self._note_exit()
        # Record that our latest request has been satisfied.
        self.token_last_granted[self.node_id] = self.request_numbers[self.node_id]
        # Add every node with an outstanding request to the token queue.
        for other in self.all_nodes:
            if other == self.node_id or other in self.token_queue:
                continue
            if self.request_numbers[other] == self.token_last_granted.get(other, 0) + 1:
                self.token_queue.append(other)
        if self.token_queue:
            self._pass_token(self.token_queue.pop(0))

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _on_request(self, sender: int, message: SKRequest) -> None:
        current = self.request_numbers[message.origin]
        self.request_numbers[message.origin] = max(current, message.sequence)
        # An idle token holder hands the token over immediately if the request
        # is outstanding (not yet granted according to the token).
        if (
            self.has_token
            and not self.in_critical_section
            and not self.requesting
            and self.request_numbers[message.origin]
            == self.token_last_granted[message.origin] + 1
        ):
            self._pass_token(message.origin)

    def _on_privilege(self, sender: int, message: SKPrivilege) -> None:
        if self.has_token:
            raise ProtocolError(f"node {self.node_id} received a duplicate token")
        self.has_token = True
        self.token_last_granted = dict(message.last_granted)
        self.token_queue = list(message.queue)
        if self.requesting:
            self._enter_critical_section()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _pass_token(self, destination: int) -> None:
        self.has_token = False
        token = SKPrivilege(
            last_granted=tuple(sorted(self.token_last_granted.items())),
            queue=tuple(self.token_queue),
        )
        self.token_last_granted = {}
        self.token_queue = []
        self.network.send(self.node_id, destination, token)


@registry.register
class SuzukiKasamiSystem(MutexSystem):
    """Suzuki–Kasami's broadcast token algorithm."""

    algorithm_name = "suzuki-kasami"
    uses_topology_edges = False
    #: The request broadcast costs N messages per entry, and the per-node
    #: request-number array is Theta(N) memory.
    max_recommended_nodes = 1_000
    storage_class = "linear"
    token_based = True
    storage_description = (
        "per node: request-number array of size N; token: last-granted array of "
        "size N plus a queue of waiting nodes"
    )

    def _create_nodes(self) -> Dict[int, SuzukiKasamiNode]:
        holder = self.topology.token_holder
        return {
            node_id: SuzukiKasamiNode(
                node_id,
                self.network,
                all_nodes=self.topology.nodes,
                holds_token=(node_id == holder),
            )
            for node_id in self.topology.nodes
        }
