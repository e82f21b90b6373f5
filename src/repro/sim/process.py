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
critical section.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.sim.engine import SimulationEngine
from repro.sim.network import Network


class HandlerTable:
    """A class-level message dispatch table, shared by every driver of a handler.

    A subclass declares ``_MESSAGE_HANDLERS`` (message type -> handler method
    name) and gets :attr:`dispatch_table` (message type -> handler function),
    built once per class by resolving each name *on that class*, so a
    subclass's override of a handler is what runs.  A driver calls the entry
    for a message's type as ``handler(process, sender, message)`` and
    ``on_message`` for any other type.  The simulator's :class:`~repro.sim
    .network.Network` does, and so does the runtime's token tree
    (:class:`~repro.runtime.cluster.TokenTree`), for the same kernel.
    """

    __slots__ = ()

    #: Map of message type -> handler method name, declared by subclasses.
    _MESSAGE_HANDLERS: Dict[type, str] = {}
    #: Message type -> handler function, built from ``_MESSAGE_HANDLERS``.
    dispatch_table: Dict[type, Callable[[Any, int, Any], None]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.dispatch_table = {
            message_type: getattr(cls, handler_name)
            for message_type, handler_name in cls._MESSAGE_HANDLERS.items()
        }


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
