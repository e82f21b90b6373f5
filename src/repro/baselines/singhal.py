"""Singhal's heuristically-aided token algorithm (Section 2.5).

Every node keeps a state vector ``SV`` (one of ``R``, ``E``, ``H``, ``N`` per
node) and a sequence-number vector ``SN``; the token carries its own pair of
vectors.  A requester sends its REQUEST only to the nodes its heuristic deems
likely to hold the token — those marked ``R`` — rather than to everyone, so
the message count per entry ranges from ``N/2``-ish at low load up to ``N``
under heavy demand (the paper's quoted upper bound).

The staircase initialisation (node ``i`` marks every lower-numbered node as
``R``) establishes the pairwise invariant that for any two nodes at least one
has the other in its request set, which together with the rule that a
*requesting* node forwards its own request to any newly discovered requester
guarantees liveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.baselines.base import MutexNodeBase, MutexSystem, registry
from repro.exceptions import ProtocolError

# Node states tracked in the state vectors.
REQUESTING = "R"
EXECUTING = "E"
HOLDING = "H"
NONE = "N"


def _staircase_ranks(all_nodes, token_holder: int) -> Dict[int, int]:
    """Rank nodes starting at the token holder, then by ascending identifier.

    The holder gets rank 0; the classic formulation (token at node 1, ranks by
    node id) is the special case where the holder is the smallest identifier.
    """
    ordered = sorted(all_nodes)
    position = ordered.index(token_holder)
    rotated = ordered[position:] + ordered[:position]
    return {node: rank for rank, node in enumerate(rotated)}


@dataclass(frozen=True)
class SinghalRequest:
    """Token request carrying the requester's sequence number."""

    origin: int
    sequence: int

    type_name = "REQUEST"

    def payload_size(self) -> int:
        return 2

    def describe(self) -> str:
        return f"REQUEST(from={self.origin}, seq={self.sequence})"


@dataclass(frozen=True)
class SinghalPrivilege:
    """The token, carrying its own state and sequence vectors."""

    state_vector: Tuple[Tuple[int, str], ...]
    sequence_vector: Tuple[Tuple[int, int], ...]

    type_name = "PRIVILEGE"

    def payload_size(self) -> int:
        # One state entry and one integer per node.
        return 2 * len(self.sequence_vector)

    def describe(self) -> str:
        return "PRIVILEGE(token vectors)"


class SinghalNode(MutexNodeBase):
    """One participant of Singhal's algorithm."""

    _MESSAGE_HANDLERS = {
        SinghalRequest: "_on_request",
        SinghalPrivilege: "_on_privilege",
    }

    def __init__(
        self,
        node_id: int,
        network,
        *,
        all_nodes,
        token_holder: int,
    ) -> None:
        super().__init__(node_id, network)
        self.all_nodes = tuple(all_nodes)
        self.others = tuple(n for n in self.all_nodes if n != node_id)
        holds_token = node_id == token_holder
        # Staircase initialisation, generalised to an arbitrary initial token
        # holder: rank the nodes starting at the holder, and mark every
        # lower-ranked node as requesting.  Every node therefore has the
        # holder in its request set, and for any pair of nodes at least one
        # has the other in its set — Singhal's pairwise invariant.
        ranks = _staircase_ranks(self.all_nodes, token_holder)
        self.state_vector: Dict[int, str] = {
            other: (REQUESTING if ranks[other] < ranks[node_id] else NONE)
            for other in self.all_nodes
        }
        self.state_vector[node_id] = HOLDING if holds_token else NONE
        self.sequence_vector: Dict[int, int] = {other: 0 for other in self.all_nodes}
        self.has_token = holds_token
        self.token_state: Dict[int, str] = (
            {other: NONE for other in self.all_nodes} if holds_token else {}
        )
        self.token_sequence: Dict[int, int] = (
            {other: 0 for other in self.all_nodes} if holds_token else {}
        )

    # ------------------------------------------------------------------ #
    # requests and releases
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        self._note_request()
        if self.has_token:
            self.state_vector[self.node_id] = EXECUTING
            self._enter_critical_section()
            return
        self.state_vector[self.node_id] = REQUESTING
        self.sequence_vector[self.node_id] += 1
        sequence = self.sequence_vector[self.node_id]
        for other in self.others:
            if self.state_vector[other] == REQUESTING:
                self.network.send(self.node_id, other,
                                  SinghalRequest(origin=self.node_id, sequence=sequence))

    def release_cs(self) -> None:
        self._note_exit()
        self.state_vector[self.node_id] = NONE
        self.token_state[self.node_id] = NONE
        self.token_sequence[self.node_id] = self.sequence_vector[self.node_id]
        # Merge local knowledge with the token's knowledge, newest wins.
        for other in self.all_nodes:
            if self.sequence_vector[other] > self.token_sequence[other]:
                self.token_state[other] = self.state_vector[other]
                self.token_sequence[other] = self.sequence_vector[other]
            else:
                self.state_vector[other] = self.token_state[other]
                self.sequence_vector[other] = self.token_sequence[other]
        successor = self._pick_requester()
        if successor is None:
            self.state_vector[self.node_id] = HOLDING
        else:
            self._pass_token(successor)

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _on_request(self, sender: int, message: SinghalRequest) -> None:
        origin, sequence = message.origin, message.sequence
        if sequence <= self.sequence_vector[origin]:
            # Outdated request: the token already satisfied it.
            return
        self.sequence_vector[origin] = sequence
        my_state = self.state_vector[self.node_id]
        previously_requesting = self.state_vector[origin] == REQUESTING
        self.state_vector[origin] = REQUESTING

        if my_state == NONE or my_state == EXECUTING:
            return
        if my_state == REQUESTING:
            # Forward our own request to the newly discovered requester: it may
            # be (or become) the token holder and our broadcast missed it.
            if not previously_requesting:
                self.network.send(
                    self.node_id, origin,
                    SinghalRequest(
                        origin=self.node_id,
                        sequence=self.sequence_vector[self.node_id],
                    ),
                )
            return
        if my_state == HOLDING:
            # Idle token holder: hand the token over immediately.
            self.state_vector[self.node_id] = NONE
            self.token_state[origin] = REQUESTING
            self.token_sequence[origin] = sequence
            self._pass_token(origin)
            return
        raise ProtocolError(f"node {self.node_id} has invalid state {my_state!r}")

    def _on_privilege(self, sender: int, message: SinghalPrivilege) -> None:
        if self.has_token:
            raise ProtocolError(f"node {self.node_id} received a duplicate token")
        if not self.requesting:
            raise ProtocolError(
                f"node {self.node_id} received the token without an outstanding request"
            )
        self.has_token = True
        self.token_state = dict(message.state_vector)
        self.token_sequence = dict(message.sequence_vector)
        self.state_vector[self.node_id] = EXECUTING
        self._enter_critical_section()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _pick_requester(self):
        """Pick the next requester round-robin starting after our own id."""
        ordered = sorted(self.all_nodes)
        position = ordered.index(self.node_id)
        rotated = ordered[position + 1 :] + ordered[:position]
        for candidate in rotated:
            if self.state_vector[candidate] == REQUESTING:
                return candidate
        return None

    def _pass_token(self, destination: int) -> None:
        self.has_token = False
        token = SinghalPrivilege(
            state_vector=tuple(sorted(self.token_state.items())),
            sequence_vector=tuple(sorted(self.token_sequence.items())),
        )
        self.token_state = {}
        self.token_sequence = {}
        self.network.send(self.node_id, destination, token)


@registry.register
class SinghalSystem(MutexSystem):
    """Singhal's heuristically-aided algorithm."""

    algorithm_name = "singhal"
    uses_topology_edges = False
    #: Heuristics trim the average, but state and sequence vectors are
    #: Theta(N) per node and the worst-case fan-out is N.
    max_recommended_nodes = 1_000
    storage_class = "linear"
    token_based = True
    storage_description = (
        "per node: state vector and sequence vector of size N; token: its own "
        "state and sequence vectors of size N"
    )

    def _create_nodes(self) -> Dict[int, SinghalNode]:
        holder = self.topology.token_holder
        return {
            node_id: SinghalNode(
                node_id,
                self.network,
                all_nodes=self.topology.nodes,
                token_holder=holder,
            )
            for node_id in self.topology.nodes
        }
