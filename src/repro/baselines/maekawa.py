"""Maekawa's quorum (√N) algorithm with Sanders' deadlock fix (Section 2.6).

A node only needs permission from its *committee* (quorum); any two committees
intersect, so two nodes can never both collect full permission.  The best case
costs about ``3 * sqrt(N)`` messages (REQUEST, LOCKED, RELEASE to each
committee member), the worst case about ``7 * sqrt(N)`` once the
INQUIRE / RELINQUISH / FAIL deadlock-avoidance traffic is counted — exactly the
range the paper quotes after Sanders' correction.

Quorum construction
-------------------
The paper notes that optimal committees correspond to finite projective
planes, which only exist for particular ``N``.  Following common practice this
implementation uses **grid quorums**: nodes are laid out in a near-square
grid and a node's committee is its row plus its column.  Grid quorums have the
required pairwise-intersection property for every ``N`` and are Θ(√N) in
size, so the message-count scaling the paper reports is preserved; this is the
only place the reproduction substitutes a construction (documented in
DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.baselines.base import MutexNodeBase, MutexSystem, registry
from repro.exceptions import ProtocolError

Timestamp = Tuple[int, int]


def build_grid_quorums(node_ids: Sequence[int]) -> Dict[int, Tuple[int, ...]]:
    """Grid quorums: each node's committee is its grid row plus its column.

    The nodes are laid out row-major in a ``rows x cols`` grid with
    ``cols = ceil(sqrt(N))``.  Every pair of committees intersects (the row of
    one crosses the column of the other), and every committee contains its own
    node, as Maekawa requires.
    """
    ordered = list(node_ids)
    count = len(ordered)
    if count == 0:
        raise ProtocolError("cannot build quorums for an empty node set")
    cols = math.ceil(math.sqrt(count))
    rows = math.ceil(count / cols)

    def position(index: int) -> Tuple[int, int]:
        return index // cols, index % cols

    quorums: Dict[int, Tuple[int, ...]] = {}
    for index, node in enumerate(ordered):
        row, col = position(index)
        members: Set[int] = set()
        for other_index, other in enumerate(ordered):
            other_row, other_col = position(other_index)
            if other_row == row or other_col == col:
                members.add(other)
        members.add(node)
        quorums[node] = tuple(sorted(members))
    return quorums


@dataclass(frozen=True)
class MaekawaRequest:
    """Request sent to every committee member."""

    clock: int
    origin: int

    type_name = "REQUEST"

    def payload_size(self) -> int:
        return 2

    def describe(self) -> str:
        return f"REQUEST(c={self.clock}, from={self.origin})"


@dataclass(frozen=True)
class MaekawaLocked:
    """A committee member's vote: it is now locked for the requester."""

    origin: int

    type_name = "LOCKED"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"LOCKED(from={self.origin})"


@dataclass(frozen=True)
class MaekawaRelease:
    """The requester is done; the member may vote for someone else."""

    origin: int

    type_name = "RELEASE"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"RELEASE(from={self.origin})"


@dataclass(frozen=True)
class MaekawaInquire:
    """Member asks its current lock holder to consider giving the vote back."""

    origin: int

    type_name = "INQUIRE"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"INQUIRE(from={self.origin})"


@dataclass(frozen=True)
class MaekawaRelinquish:
    """Requester returns a member's vote so a higher-priority request can win."""

    origin: int

    type_name = "RELINQUISH"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"RELINQUISH(from={self.origin})"


@dataclass(frozen=True)
class MaekawaFail:
    """Member tells a requester that a higher-priority request holds its vote."""

    origin: int

    type_name = "FAIL"

    def payload_size(self) -> int:
        return 1

    def describe(self) -> str:
        return f"FAIL(from={self.origin})"


class MaekawaNode(MutexNodeBase):
    """One participant, acting both as requester and as committee member."""

    _MESSAGE_HANDLERS = {
        MaekawaRequest: "_on_request",
        MaekawaLocked: "_on_locked",
        MaekawaRelease: "_on_release",
        MaekawaInquire: "_on_inquire",
        MaekawaRelinquish: "_on_relinquish",
        MaekawaFail: "_on_fail",
    }

    def __init__(self, node_id: int, network, *, quorum: Sequence[int]) -> None:
        super().__init__(node_id, network)
        self.quorum = tuple(quorum)
        self.clock = 0
        # --- requester-side state -------------------------------------- #
        self.my_request: Optional[Timestamp] = None
        self.votes: Set[int] = set()
        self.failed_from: Set[int] = set()
        self.inquiries_pending: Set[int] = set()
        # --- member-side state ------------------------------------------ #
        # The request currently holding our vote, and the queue of waiting
        # requests, both as (timestamp, origin) with timestamp = (clock, id).
        self.locked_for: Optional[Tuple[Timestamp, int]] = None
        self.waiting: List[Tuple[Timestamp, int]] = []
        self.inquired = False
        self.failed_sent: Set[int] = set()

    # ------------------------------------------------------------------ #
    # requester side
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        self._note_request()
        self.clock += 1
        self.my_request = (self.clock, self.node_id)
        self.votes = set()
        self.failed_from = set()
        self.inquiries_pending = set()
        # Build the message once: handling our own copy through the loopback
        # advances our clock, and later committee members must still see the
        # timestamp the request was issued with.
        request = MaekawaRequest(clock=self.my_request[0], origin=self.node_id)
        for member in self.quorum:
            self._send_or_loopback(member, request)

    def release_cs(self) -> None:
        self._note_exit()
        self.my_request = None
        self.votes = set()
        self.failed_from = set()
        self.inquiries_pending = set()
        for member in self.quorum:
            self._send_or_loopback(member, MaekawaRelease(origin=self.node_id))

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _on_request(self, sender: int, message: MaekawaRequest) -> None:
        self.clock = max(self.clock, message.clock) + 1
        self._member_handle_request((message.clock, message.origin))

    def _on_locked(self, sender: int, message: MaekawaLocked) -> None:
        self._requester_handle_locked(message.origin)

    def _on_release(self, sender: int, message: MaekawaRelease) -> None:
        self._member_handle_release(message.origin)

    def _on_inquire(self, sender: int, message: MaekawaInquire) -> None:
        self._requester_handle_inquire(message.origin)

    def _on_relinquish(self, sender: int, message: MaekawaRelinquish) -> None:
        self._member_handle_relinquish(message.origin)

    def _on_fail(self, sender: int, message: MaekawaFail) -> None:
        self._requester_handle_fail(message.origin)

    # ------------------------------------------------------------------ #
    # member-side behaviour
    # ------------------------------------------------------------------ #
    def _member_handle_request(self, request: Timestamp) -> None:
        timestamp, origin = request, request[1]
        if self.locked_for is None:
            self.locked_for = (timestamp, origin)
            self.inquired = False
            self.failed_sent.discard(origin)
            self._send_or_loopback(origin, MaekawaLocked(origin=self.node_id))
            return
        locked_timestamp, locked_origin = self.locked_for
        self.waiting.append((timestamp, origin))
        self.waiting.sort()
        if timestamp < locked_timestamp:
            # Newcomer has priority over the current lock: ask the holder to
            # consider relinquishing (one INQUIRE per lock).
            if not self.inquired:
                self.inquired = True
                self._send_or_loopback(locked_origin, MaekawaInquire(origin=self.node_id))
        else:
            # Sanders' fix: tell the lower-priority newcomer it cannot win yet,
            # so it can answer INQUIREs at the members it did manage to lock.
            if origin not in self.failed_sent:
                self.failed_sent.add(origin)
                self._send_or_loopback(origin, MaekawaFail(origin=self.node_id))

    def _member_handle_release(self, origin: int) -> None:
        if self.locked_for is None or self.locked_for[1] != origin:
            raise ProtocolError(
                f"member {self.node_id} received RELEASE from {origin} but is locked "
                f"for {self.locked_for}"
            )
        self._grant_next()

    def _member_handle_relinquish(self, origin: int) -> None:
        if self.locked_for is None or self.locked_for[1] != origin:
            # A stale relinquish (the lock already moved on) can be ignored.
            return
        # Put the relinquished request back in the queue and re-grant.
        self.waiting.append(self.locked_for)
        self.waiting.sort()
        self._grant_next()

    def _grant_next(self) -> None:
        self.locked_for = None
        self.inquired = False
        if not self.waiting:
            return
        timestamp, origin = self.waiting.pop(0)
        self.locked_for = (timestamp, origin)
        # A FAIL previously sent for this request is superseded by the vote.
        self.failed_sent.discard(origin)
        self._send_or_loopback(origin, MaekawaLocked(origin=self.node_id))
        # Sanders' fix: every request still waiting behind the new lock gets a
        # FAIL so its originator knows it must answer INQUIREs.  "If one has
        # not already been sent" is per request, so failed_sent persists
        # across grants and each waiting request receives at most one FAIL.
        for waiting_timestamp, waiting_origin in self.waiting:
            if waiting_origin not in self.failed_sent:
                self.failed_sent.add(waiting_origin)
                self._send_or_loopback(waiting_origin, MaekawaFail(origin=self.node_id))

    # ------------------------------------------------------------------ #
    # requester-side behaviour
    # ------------------------------------------------------------------ #
    def _requester_handle_locked(self, member: int) -> None:
        if self.my_request is None:
            # The vote arrived after we released (possible when a relinquished
            # vote is re-granted); the RELEASE we broadcast will clean it up.
            return
        self.votes.add(member)
        self.failed_from.discard(member)
        if self.requesting and set(self.quorum) <= self.votes:
            self.inquiries_pending = set()
            self._enter_critical_section()

    def _requester_handle_fail(self, member: int) -> None:
        self.failed_from.add(member)
        # Any INQUIRE we postponed can now be answered: we know we cannot win
        # until the competing request finishes, so give the votes back.
        if self.my_request is not None and not self.in_critical_section:
            for inquiring in sorted(self.inquiries_pending):
                self._relinquish(inquiring)
            self.inquiries_pending = set()

    def _requester_handle_inquire(self, member: int) -> None:
        if self.my_request is None or self.in_critical_section:
            # Too late: we are already executing (or done); the member's vote
            # will be freed by our RELEASE.
            return
        if self.failed_from:
            self._relinquish(member)
        else:
            # We might still win: postpone the answer until we either enter the
            # critical section or receive a FAIL.
            self.inquiries_pending.add(member)

    def _relinquish(self, member: int) -> None:
        if member in self.votes:
            self.votes.discard(member)
        self._send_or_loopback(member, MaekawaRelinquish(origin=self.node_id))

    # ------------------------------------------------------------------ #
    # local delivery for the node's own committee membership
    # ------------------------------------------------------------------ #
    def _send_or_loopback(self, destination: int, message: Any) -> None:
        """Send a message, handling our own committee membership locally.

        The paper says a requester "pretends to have received the REQUEST
        message itself"; delivering loopback messages synchronously keeps that
        behaviour without putting self-addressed traffic on the network (and
        without counting it as a message, matching how the paper counts).
        """
        if destination == self.node_id:
            self.on_message(self.node_id, message)
        else:
            self.network.send(self.node_id, destination, message)


@registry.register
class MaekawaSystem(MutexSystem):
    """Maekawa's algorithm with grid quorums and Sanders' deadlock fix."""

    algorithm_name = "maekawa"
    uses_topology_edges = False
    #: Quorum traffic is O(sqrt(N)) but grid-quorum construction and the
    #: vote bookkeeping stop being informative past the small tiers.
    max_recommended_nodes = 1_000
    storage_class = "quorum"
    token_based = False
    storage_description = (
        "per node: committee membership (about sqrt(N) ids), current vote, "
        "priority queue of waiting requests, vote/fail bookkeeping sets"
    )

    def _create_nodes(self) -> Dict[int, MaekawaNode]:
        quorums = build_grid_quorums(self.topology.nodes)
        return {
            node_id: MaekawaNode(node_id, self.network, quorum=quorums[node_id])
            for node_id in self.topology.nodes
        }

    @property
    def quorums(self) -> Dict[int, Tuple[int, ...]]:
        """The committee of every node (useful for tests and examples)."""
        return {node_id: node.quorum for node_id, node in self.nodes.items()}
