"""Process abstraction layered on the engine and network.

A :class:`SimProcess` is one node of the distributed system: it can send
messages and receive them through :meth:`on_message` — nothing else, as in
the paper's model, where a node acts only on a message or on its own user.
Algorithm implementations (the DAG protocol and every baseline) subclass it,
so the substrate they run on is identical and the measured message counts are
directly comparable.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.sim.engine import SimulationEngine
from repro.sim.network import Network


class SimProcess:
    """Base class for a simulated node process.

    Subclasses override :meth:`on_message`.  The constructor registers the
    process with the network so it can receive messages immediately.
    """

    def __init__(self, node_id: int, network: Network) -> None:
        self.node_id = int(node_id)
        self.network = network
        self.engine: SimulationEngine = network.engine
        # Register the handler directly: one bound-method call per delivery
        # instead of two.  The bound method is resolved here, so subclass
        # overrides of ``on_message`` are picked up as usual.
        network.register(self.node_id, self.on_message)
        # Shadow the ``send`` method with a partial bound to this node's id:
        # calls skip one Python frame, which matters on the messaging hot
        # path.  The signature callers see is unchanged.
        self.send = partial(network.send, self.node_id)

    # ------------------------------------------------------------------ #
    # actions available to subclasses
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    # ``send(receiver, message)`` sends over the reliable FIFO network.  It
    # is installed per instance in ``__init__`` as a partial of
    # ``network.send`` bound to this node's id (one Python frame cheaper
    # than a wrapper method on the messaging hot path).
    send: Callable[[int, Any], None]

    # ------------------------------------------------------------------ #
    # hooks for subclasses
    # ------------------------------------------------------------------ #
    def on_message(self, sender: int, message: Any) -> None:
        """Handle a message delivered to this node.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node_id={self.node_id})"
