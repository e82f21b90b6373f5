"""System-level wrapper: a DAG-mutex system that checks itself as it runs.

:class:`DagMutexProtocol` is :class:`~repro.baselines.dag_adapter.DagSystem`
— the one place the DAG nodes are wired to an engine, network, metrics and
trace — plus the :class:`~repro.core.invariants.InvariantChecker`: it can run
the Chapter 5 safety checks after every request, release and simulation
event, which is how they are checked continuously during stress tests, and it
adds the system-wide introspection (``snapshot``, ``token_location``) the
examples and the paper-walkthrough tests read.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.base import QUIESCENCE_BUDGET
from repro.baselines.dag_adapter import DagSystem
from repro.core.inspector import token_holder
from repro.core.invariants import InvariantChecker
from repro.exceptions import ProtocolError
from repro.topology.base import Topology


class DagMutexProtocol(DagSystem):
    """A complete protocol instance over a given logical topology.

    Messages take one time unit each and metrics are always collected.

    Args:
        topology: the logical tree and initial token holder.
        record_trace: whether to record a full protocol trace.
        check_invariants: run the Chapter 5 safety checks after every event
            step driven through :meth:`run` / :meth:`run_until_quiescent`.

    Example:
        >>> from repro.topology import star
        >>> protocol = DagMutexProtocol(star(5))
        >>> protocol.request(3)
        >>> protocol.run_until_quiescent()
        >>> protocol.node(3).in_critical_section
        True
        >>> protocol.release(3)
        >>> protocol.metrics.completed_entries
        1
    """

    def __init__(
        self,
        topology: Topology,
        *,
        record_trace: bool = False,
        check_invariants: bool = False,
    ) -> None:
        super().__init__(topology, record_trace=record_trace)
        self._checker = InvariantChecker(self) if check_invariants else None

    @property
    def invariant_checker(self) -> Optional[InvariantChecker]:
        """The attached invariant checker, if enabled."""
        return self._checker

    # ------------------------------------------------------------------ #
    # driving the protocol
    # ------------------------------------------------------------------ #
    def request(self, node_id: int) -> None:
        """Issue a critical-section request at ``node_id`` (procedure P1)."""
        super().request(node_id)
        self._check()

    def release(self, node_id: int) -> None:
        """Release the critical section at ``node_id``."""
        super().release(node_id)
        self._check()

    def run(self, *, max_events: Optional[int] = None, until: Optional[float] = None) -> int:
        """Advance the simulation, checking invariants after every event.

        Returns the number of events processed.  Without an attached
        invariant checker the engine runs the whole batch in one call rather
        than being re-entered once per event.
        """
        if self._checker is None:
            return super().run(max_events=max_events, until=until)
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            stepped = self.engine.run(max_events=1, until=until)
            if stepped == 0:
                break
            processed += stepped
            self._check()
        return processed

    def run_until_quiescent(self) -> int:
        """Run until no events remain (all messages delivered).

        Raises:
            ProtocolError: if :data:`~repro.baselines.base.QUIESCENCE_BUDGET`
                events pass and some remain, which for this protocol can only
                mean a livelock bug.
        """
        processed = self.run(max_events=QUIESCENCE_BUDGET)
        if self.engine.pending_events > 0:
            raise ProtocolError(
                f"simulation did not quiesce within {QUIESCENCE_BUDGET} events"
            )
        return processed

    # ------------------------------------------------------------------ #
    # system-wide introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[int, Dict[str, object]]:
        """Per-node variable tables, Figure 6 style."""
        return {node_id: node.snapshot() for node_id, node in sorted(self.nodes.items())}

    def token_location(self) -> Optional[int]:
        """The node currently having the token, or ``None`` while in transit."""
        return token_holder(self)

    def _check(self) -> None:
        if self._checker is not None:
            self._checker.check()
