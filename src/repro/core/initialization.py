"""The initialisation procedure of Figure 5.

The main protocol assumes every node already knows its ``NEXT`` neighbour on
the path to the initial token holder.  Figure 5 shows how to establish that
knowledge when each node only knows its *neighbours*: the token holder floods
an ``INITIALIZE`` message outward; every other node sets ``NEXT`` to whichever
neighbour it first heard from and forwards the flood to its remaining
neighbours.

This module runs that procedure on the simulation substrate and returns the
resulting pointer map, which equals what
:meth:`repro.topology.Topology.next_pointers` computes analytically — a fact
the tests assert for every generated topology.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.messages import Initialize
from repro.exceptions import ProtocolError
from repro.sim.engine import SimulationEngine
from repro.sim.network import Network
from repro.sim.process import SimProcess


class _InitProcess(SimProcess):
    """A node running only the Figure 5 initialisation procedure."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        neighbours: Sequence[int],
        *,
        holds_token: bool,
    ) -> None:
        super().__init__(node_id, network)
        self.neighbours = list(neighbours)
        self.holds_token = holds_token
        self.holding: Optional[bool] = None
        self.next_node: Optional[int] = None
        self.follow: Optional[int] = None
        self.initialized = False

    def start(self) -> None:
        """Begin the procedure; only the token holder acts spontaneously."""
        if not self.holds_token:
            return
        self.holding = True
        self.next_node = None
        self.follow = None
        self.initialized = True
        for neighbour in self.neighbours:
            self.network.send(self.node_id, neighbour, Initialize(origin=self.node_id))

    def on_message(self, sender: int, message: Initialize) -> None:
        if not isinstance(message, Initialize):
            raise ProtocolError(
                f"initialisation node {self.node_id} received unexpected {message!r}"
            )
        if self.initialized:
            # A second INITIALIZE can only arrive if the topology has a cycle;
            # on a tree each node hears the flood exactly once.
            raise ProtocolError(
                f"node {self.node_id} received a second INITIALIZE from {sender}; "
                "the logical structure is not a tree"
            )
        self.holding = False
        self.next_node = message.origin
        self.follow = None
        self.initialized = True
        for neighbour in self.neighbours:
            if neighbour != message.origin:
                self.network.send(self.node_id, neighbour, Initialize(origin=self.node_id))


def run_initialization(
    adjacency: Mapping[int, Sequence[int]],
    token_holder: int,
) -> Dict[int, Optional[int]]:
    """Run Figure 5's INIT flood and return the resulting ``NEXT`` pointers.

    Args:
        adjacency: each node's neighbour list (must describe a tree).
        token_holder: the node that initially holds the token.

    Returns:
        Mapping from node id to its computed ``NEXT`` value (``None`` for the
        token holder).

    Raises:
        ProtocolError: if some node is never reached by the flood (the graph
            is disconnected) or is reached twice (the graph has a cycle).
    """
    if token_holder not in adjacency:
        raise ProtocolError(f"token holder {token_holder} is not in the adjacency map")

    engine = SimulationEngine()
    network = Network(engine)
    processes = {
        node_id: _InitProcess(
            node_id,
            network,
            neighbours,
            holds_token=(node_id == token_holder),
        )
        for node_id, neighbours in adjacency.items()
    }
    for process in processes.values():
        process.start()
    engine.run()

    uninitialised = sorted(
        node_id for node_id, process in processes.items() if not process.initialized
    )
    if uninitialised:
        raise ProtocolError(
            f"initialisation flood never reached nodes {uninitialised}; "
            "the logical structure is disconnected"
        )
    return {node_id: process.next_node for node_id, process in processes.items()}
