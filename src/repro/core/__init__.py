"""The paper's contribution: the DAG-based distributed mutual exclusion algorithm.

Each node keeps only three variables — ``HOLDING``, ``NEXT`` and ``FOLLOW`` —
and exchanges two message types, ``REQUEST`` and ``PRIVILEGE``.  The logical
structure is a tree oriented toward the current sink; the global waiting queue
is implicit in the ``FOLLOW`` pointers and can be reconstructed by
:func:`~repro.core.inspector.implicit_queue`.

Public entry points:

* :class:`~repro.core.node.DagNodeCore` — the protocol kernel (Figure 3's
  P1/P2), steppable by any driver that supplies ``send``;
* :class:`~repro.core.node.DagMutexNode` — the kernel on the simulation
  substrate;
* :class:`~repro.core.protocol.DagMutexProtocol` — builds a full system from a
  :class:`~repro.topology.Topology` and drives requests / releases;
* :class:`~repro.core.invariants.InvariantChecker` — checks the safety
  properties proved in Chapter 5 after every event;
* :func:`~repro.core.initialization.run_initialization` — the INIT flood of
  Figure 5, for bootstrapping a system whose nodes only know their neighbours.
"""

from repro.core.inspector import implicit_queue, token_holder
from repro.core.invariants import InvariantChecker
from repro.core.messages import Initialize, Privilege, Request
from repro.core.node import DagMutexNode, DagNodeCore
from repro.core.protocol import DagMutexProtocol
from repro.core.state import NodeStateName, classify_state
from repro.core.initialization import run_initialization

__all__ = [
    "Request",
    "Privilege",
    "Initialize",
    "DagNodeCore",
    "DagMutexNode",
    "DagMutexProtocol",
    "NodeStateName",
    "classify_state",
    "InvariantChecker",
    "implicit_queue",
    "token_holder",
    "run_initialization",
]
