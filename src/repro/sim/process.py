"""Process abstraction layered on the engine and network.

A :class:`SimProcess` is one node of the distributed system: it sends
through ``self.network.send(self.node_id, receiver, message)`` and receives
through :meth:`on_message` — nothing else, as in the paper's model, where a
node acts only on a message or on its own user.
Algorithm implementations (the DAG protocol and every baseline) subclass it,
so the substrate they run on is identical and the measured message counts are
directly comparable.  A process is wired to a replay through its network
alone: it copies the network's metrics collector and trace recorder when it
is built and calls the network's ``on_enter`` hook when it enters its
critical section.  Its delivery wiring is the kernel's
:class:`~repro.core.node.HandlerTable`, imported from :mod:`repro.core`, the
one layer below the simulator.
"""

from __future__ import annotations

from typing import Any

from repro.core.node import HandlerTable
from repro.sim.engine import SimulationEngine
from repro.sim.network import Network


class SimProcess(HandlerTable):
    """Base class for a simulated node process.

    An instance is its state plus ``network``, ``engine`` and the network's
    two observers, ``_metrics`` and ``_trace``, copied when it is built (a
    handler reads them on every call); its delivery wiring is on the class,
    and the enter hook is the network's :attr:`~repro.sim.network.Network
    .on_enter`.  The constructor registers the object itself, and the
    network calls the class-level :attr:`dispatch_table` entry for a
    delivered message's type as ``handler(process, sender, message)`` and
    :meth:`on_message` for any other type (every type, for a class without
    ``_MESSAGE_HANDLERS``).  No instance slots here: a subclass that
    declares ``__slots__`` (the DAG node) has no ``__dict__``.
    """

    __slots__ = ()

    def __init__(self, node_id: int, network: Network) -> None:
        self.node_id = int(node_id)
        self.network = network
        self.engine: SimulationEngine = network.engine
        self._metrics = network._metrics
        self._trace = network._trace
        network.register(self.node_id, self)

    # ------------------------------------------------------------------ #
    # actions available to subclasses
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.engine.now

    # ------------------------------------------------------------------ #
    # hooks for subclasses
    # ------------------------------------------------------------------ #
    def on_message(self, sender: int, message: Any) -> None:
        """Handle a message delivered to this node.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node_id={self.node_id})"
