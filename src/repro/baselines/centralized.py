"""Centralized coordinator algorithm.

This is the reference point of the paper's Chapter 6: one node acts as the
coordinator; everyone else sends it a ``REQUEST``, receives a ``GRANT`` when
the resource is free, and sends a ``RELEASE`` when done — three messages per
critical-section entry for a non-coordinator node, zero for the coordinator,
and a synchronization delay of two messages (RELEASE followed by GRANT).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional

from repro.baselines.base import MutexNodeBase, MutexSystem, registry
from repro.exceptions import ProtocolError


@dataclass(frozen=True)
class CentralRequest:
    """Request for the critical section, sent to the coordinator."""

    origin: int

    type_name = "REQUEST"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"REQUEST(origin={self.origin})"


@dataclass(frozen=True)
class CentralGrant:
    """Permission to enter, sent by the coordinator."""

    type_name = "GRANT"

    def payload_size(self) -> int:
        return 0

    def describe(self) -> str:
        return "GRANT"


@dataclass(frozen=True)
class CentralRelease:
    """Notification that the critical section was released."""

    origin: int

    type_name = "RELEASE"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"RELEASE(origin={self.origin})"


class CentralizedNode(MutexNodeBase):
    """A participant in the centralized scheme.

    The coordinator node also runs the coordinator logic (queue of pending
    requests, one grant outstanding at a time); requests it makes itself are
    handled locally without messages.
    """

    _MESSAGE_HANDLERS = {
        CentralRequest: "_on_request",
        CentralRelease: "_on_release",
        CentralGrant: "_on_grant",
    }

    def __init__(self, node_id: int, network, *, coordinator: int) -> None:
        super().__init__(node_id, network)
        self.coordinator = coordinator
        # Coordinator-only state.  The queue exists only on the coordinator:
        # the storage contract ("other nodes: coordinator identity only")
        # is also a real constraint at the 1M-node tier, where a deque per
        # node would be ~600 MB of empty queues.
        self.is_coordinator = node_id == coordinator
        self.resource_busy = False
        self.current_user: Optional[int] = None
        self.pending: Optional[Deque[int]] = deque() if self.is_coordinator else None

    # ------------------------------------------------------------------ #
    # participant behaviour
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        self._note_request()
        if self.is_coordinator:
            self._coordinator_handle_request(self.node_id)
        else:
            self.network.send(self.node_id, self.coordinator, CentralRequest(origin=self.node_id))

    def release_cs(self) -> None:
        self._note_exit()
        if self.is_coordinator:
            self._coordinator_handle_release(self.node_id)
        else:
            self.network.send(self.node_id, self.coordinator, CentralRelease(origin=self.node_id))

    def _on_request(self, sender: int, message: CentralRequest) -> None:
        self._require_coordinator(message)
        self._coordinator_handle_request(message.origin)

    def _on_release(self, sender: int, message: CentralRelease) -> None:
        self._require_coordinator(message)
        self._coordinator_handle_release(message.origin)

    def _on_grant(self, sender: int, message: CentralGrant) -> None:
        if not self.requesting:
            raise ProtocolError(
                f"node {self.node_id} received a GRANT without an outstanding request"
            )
        self._enter_critical_section()

    # ------------------------------------------------------------------ #
    # coordinator behaviour
    # ------------------------------------------------------------------ #
    def _coordinator_handle_request(self, origin: int) -> None:
        if self.resource_busy:
            self.pending.append(origin)
            return
        self._grant(origin)

    def _coordinator_handle_release(self, origin: int) -> None:
        if self.current_user != origin:
            raise ProtocolError(
                f"coordinator received RELEASE from {origin} but the resource is held "
                f"by {self.current_user}"
            )
        self.resource_busy = False
        self.current_user = None
        if self.pending:
            self._grant(self.pending.popleft())

    def _grant(self, origin: int) -> None:
        self.resource_busy = True
        self.current_user = origin
        if origin == self.node_id:
            self._enter_critical_section()
        else:
            self.network.send(self.node_id, origin, CentralGrant())

    def _require_coordinator(self, message: Any) -> None:
        if not self.is_coordinator:
            raise ProtocolError(
                f"non-coordinator node {self.node_id} received {message!r}"
            )


@registry.register
class CentralizedSystem(MutexSystem):
    """The centralized scheme; the topology's token holder is the coordinator."""

    algorithm_name = "centralized"
    uses_topology_edges = False
    #: O(1) scalars on every non-coordinator node; the coordinator's queue
    #: grows with the backlog, not with N.  Unbounded: runs at the 1M tier.
    max_recommended_nodes = None
    storage_class = "constant"
    token_based = False
    storage_description = (
        "coordinator: FIFO queue of pending requests + busy flag; "
        "other nodes: coordinator identity only"
    )

    def _create_nodes(self) -> Dict[int, CentralizedNode]:
        coordinator = self.topology.token_holder
        return {
            node_id: CentralizedNode(node_id, self.network, coordinator=coordinator)
            for node_id in self.topology.nodes
        }
