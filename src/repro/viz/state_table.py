"""Figure-6-style state tables.

The complete example in the paper (Figure 6) is a sequence of tables showing
``HOLDING``, ``NEXT`` and ``FOLLOW`` for every node after each step.  These
helpers render the same table for a live protocol instance, using the paper's
conventions: booleans as ``t`` / ``f`` and empty pointers as ``0``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, TYPE_CHECKING

from repro.analysis.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.baselines.dag_adapter import DagMutexProtocol


def state_table_rows(protocol: "DagMutexProtocol") -> List[Dict[str, object]]:
    """Rows of the Figure 6 table: one row per variable, one column per node.

    The paper's tables are transposed relative to the usual "one row per node"
    layout; this follows the paper so the output can be compared side by side
    with the thesis figures.
    """
    snapshot = protocol.snapshot()
    node_ids = sorted(snapshot)
    holding_row: Dict[str, object] = {"I": "HOLDING_I"}
    next_row: Dict[str, object] = {"I": "NEXT_I"}
    follow_row: Dict[str, object] = {"I": "FOLLOW_I"}
    for node_id in node_ids:
        column = str(node_id)
        variables = snapshot[node_id]
        holding_row[column] = "t" if variables["HOLDING"] else "f"
        next_row[column] = _pointer(variables["NEXT"])
        follow_row[column] = _pointer(variables["FOLLOW"])
    return [holding_row, next_row, follow_row]


def render_state_table(protocol: "DagMutexProtocol", *, title: Optional[str] = None) -> str:
    """Render the Figure 6 table for the protocol's current state."""
    rows = state_table_rows(protocol)
    columns = ["I"] + [str(node_id) for node_id in sorted(protocol.nodes)]
    return format_table(rows, columns=columns, title=title)


def _pointer(value: Optional[int]) -> str:
    """Pointers are shown as the paper shows them: 0 when empty."""
    return "0" if value is None else str(value)
