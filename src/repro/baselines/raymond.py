"""Raymond's tree-based token algorithm (Section 2.7).

The logical structure is an (unrooted) tree; each node keeps a ``HOLDER``
pointer toward the token, a FIFO queue of neighbours (possibly including
itself) that want the token, a ``USING`` flag and an ``ASKED`` flag that
limits it to one outstanding request per queue head.  Requests travel up the
tree toward the holder and the PRIVILEGE travels back down the same path, so
an entry costs up to ``2 * D`` messages and the synchronization delay can be
as large as ``D`` — the two numbers the paper improves on.

This is the closest relative of the DAG algorithm and its most important
baseline: the DAG algorithm replaces Raymond's per-node queues with the single
``FOLLOW`` variable and cuts both the message bound (to ``D + 1``) and the
synchronization delay (to 1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.baselines.base import MutexNodeBase, MutexSystem, registry


@dataclass(frozen=True)
class RaymondRequest:
    """Hop-by-hop request sent toward the token holder."""

    origin: int

    type_name = "REQUEST"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"REQUEST(from={self.origin})"


@dataclass(frozen=True)
class RaymondPrivilege:
    """The token, passed one tree edge at a time."""

    type_name = "PRIVILEGE"

    def payload_size(self) -> int:
        return 0

    def describe(self) -> str:
        return "PRIVILEGE"


class RaymondNode(MutexNodeBase):
    """One participant of Raymond's algorithm."""

    _MESSAGE_HANDLERS = {
        RaymondRequest: "_on_request",
        RaymondPrivilege: "_on_privilege",
    }

    def __init__(
        self,
        node_id: int,
        network,
        *,
        holder: Optional[int],
    ) -> None:
        super().__init__(node_id, network)
        # HOLDER: the neighbour in the direction of the token, or ourselves
        # when we have it (None encodes "self" to mirror the DAG node's NEXT).
        self.holder: Optional[int] = holder
        self.using = False
        self.asked = False
        self.request_queue: Deque[int] = deque()

    # ------------------------------------------------------------------ #
    # requests and releases
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        self._note_request()
        self.request_queue.append(self.node_id)
        self._assign_privilege()
        self._make_request()

    def release_cs(self) -> None:
        self._note_exit()
        self.using = False
        self._assign_privilege()
        self._make_request()

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _on_request(self, sender: int, message: RaymondRequest) -> None:
        self.request_queue.append(sender)
        self._assign_privilege()
        self._make_request()

    def _on_privilege(self, sender: int, message: RaymondPrivilege) -> None:
        self.holder = None  # the token is here now
        self.asked = False
        self._assign_privilege()
        self._make_request()

    # ------------------------------------------------------------------ #
    # the two procedures of Raymond's paper
    # ------------------------------------------------------------------ #
    def _assign_privilege(self) -> None:
        """Pass the token to (or use it for) the head of the request queue."""
        if self.holder is not None or self.using or not self.request_queue:
            return
        head = self.request_queue.popleft()
        self.asked = False
        if head == self.node_id:
            self.using = True
            self._enter_critical_section()
        else:
            self.holder = head
            self.network.send(self.node_id, head, RaymondPrivilege())

    def _make_request(self) -> None:
        """Forward one request toward the holder on behalf of the queue head."""
        if self.holder is None or self.using:
            return
        if not self.request_queue or self.asked:
            return
        self.asked = True
        self.network.send(self.node_id, self.holder, RaymondRequest(origin=self.node_id))


@registry.register
class RaymondSystem(MutexSystem):
    """Raymond's algorithm on the topology's tree."""

    algorithm_name = "raymond"
    uses_topology_edges = True
    #: O(D) messages scale fine, but the per-node FIFO deque (~600 bytes
    #: each even when empty) is the Section 6.4 storage cost that prices the
    #: algorithm out of the 1M tier; 100k is the largest tier it joins.
    max_recommended_nodes = 100_000
    storage_class = "queue"
    token_based = True
    storage_description = (
        "per node: HOLDER pointer, USING and ASKED flags, FIFO queue of "
        "neighbour requests (up to degree + 1 entries)"
    )

    def _create_nodes(self) -> Dict[int, RaymondNode]:
        pointers = self.topology.next_pointers()
        return {
            node_id: RaymondNode(node_id, self.network, holder=pointers[node_id])
            for node_id in self.topology.nodes
        }
