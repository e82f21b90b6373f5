"""The paper's contribution: the DAG-based distributed mutual exclusion kernel.

Each node keeps only three variables — ``HOLDING``, ``NEXT`` and ``FOLLOW`` —
and exchanges two message types, ``REQUEST`` and ``PRIVILEGE``.  The logical
structure is a tree oriented toward the current sink; the global waiting queue
is implicit in the ``FOLLOW`` pointers and can be reconstructed by
:func:`~repro.core.inspector.implicit_queue`.

This package is the bottom layer above :mod:`repro.exceptions`: it imports
nothing else from ``repro`` (``tests/test_layers.py`` holds it there).  Its
names:

* :class:`~repro.core.node.DagNodeCore` — the protocol kernel (Figure 3's
  P1/P2), steppable by any driver that supplies ``network.send``, and
  :class:`~repro.core.node.HandlerTable`, the class-level dispatch table it
  and every simulated process share;
* the messages and the Figure 4 state names;
* :func:`~repro.core.inspector.implicit_queue` and
  :func:`~repro.core.inspector.token_holder` — the deduced queue and token;
* :class:`~repro.core.invariants.InvariantChecker` — checks the safety
  properties proved in Chapter 5 after every event.

The kernel's binding to the simulator lives in
:mod:`repro.baselines.dag_adapter`: :class:`~repro.baselines.dag_adapter
.DagMutexNode` (the kernel as a simulated process),
:class:`~repro.baselines.dag_adapter.DagMutexProtocol` (a full system built
from a topology, with invariant checking) and
:func:`~repro.baselines.dag_adapter.run_initialization` (the INIT flood of
Figure 5).
"""

from repro.core.inspector import implicit_queue, token_holder
from repro.core.invariants import InvariantChecker
from repro.core.messages import Initialize, Privilege, Request
from repro.core.node import DagNodeCore, HandlerTable
from repro.core.state import NodeStateName, classify_state

__all__ = [
    "Request",
    "Privilege",
    "Initialize",
    "DagNodeCore",
    "HandlerTable",
    "NodeStateName",
    "classify_state",
    "InvariantChecker",
    "implicit_queue",
    "token_holder",
]
