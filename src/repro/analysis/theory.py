"""Closed-form performance figures quoted in Chapter 6.

Every number the paper states analytically is reproduced here as a function of
``N`` (system size) and, where relevant, ``D`` (diameter of the logical
structure), so the benchmark harness can print *paper value* next to
*measured value* for each experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class AlgorithmBounds:
    """The paper's quoted figures for one algorithm.

    Attributes:
        name: registry name of the algorithm.
        upper_bound: worst-case messages per critical-section entry.
        lower_bound: best-case messages per critical-section entry.
        sync_delay: worst-case synchronization delay in messages, if the paper
            quotes one for this algorithm (Section 6.3 lists only the
            token-based algorithms and the centralized scheme).
        formula: human-readable formula, for tables.
    """

    name: str
    upper_bound: float
    lower_bound: float
    sync_delay: Optional[float]
    formula: str


def upper_bound_messages(algorithm: str, *, n: int, diameter: int) -> float:
    """Worst-case messages per entry for ``algorithm`` (Section 6.1 list).

    Args:
        algorithm: registry name.
        n: number of nodes.
        diameter: diameter of the logical structure (used by the tree/DAG
            algorithms; ignored by the broadcast ones).
    """
    return _bounds(algorithm, n=n, diameter=diameter).upper_bound


def upper_bound_table(*, n: int, diameter: int) -> List[AlgorithmBounds]:
    """The full Section 6.1 comparison list for a system of ``n`` nodes."""
    names = [
        "lamport",
        "ricart-agrawala",
        "carvalho-roucairol",
        "suzuki-kasami",
        "singhal",
        "maekawa",
        "raymond",
        "centralized",
        "dag",
    ]
    return [_bounds(name, n=n, diameter=diameter) for name in names]


def _bounds(algorithm: str, *, n: int, diameter: int) -> AlgorithmBounds:
    if algorithm == "lamport":
        return AlgorithmBounds(
            "lamport", 3 * (n - 1), 3 * (n - 1), None, "3 * (N - 1)"
        )
    if algorithm == "ricart-agrawala":
        return AlgorithmBounds(
            "ricart-agrawala", 2 * (n - 1), 2 * (n - 1), None, "2 * (N - 1)"
        )
    if algorithm == "carvalho-roucairol":
        return AlgorithmBounds(
            "carvalho-roucairol", 2 * (n - 1), 0, None, "0 .. 2 * (N - 1)"
        )
    if algorithm == "suzuki-kasami":
        return AlgorithmBounds("suzuki-kasami", n, 0, 1, "0 or N")
    if algorithm == "singhal":
        return AlgorithmBounds("singhal", n, 0, 1, "0 .. N")
    if algorithm == "maekawa":
        root = math.sqrt(n)
        return AlgorithmBounds("maekawa", 7 * root, 3 * root, None, "3*sqrt(N) .. 7*sqrt(N)")
    if algorithm == "raymond":
        return AlgorithmBounds("raymond", 2 * diameter, 0, diameter, "0 .. 2 * D")
    if algorithm == "centralized":
        return AlgorithmBounds("centralized", 3, 0, 2, "3 (REQUEST, GRANT, RELEASE)")
    if algorithm == "dag":
        return AlgorithmBounds("dag", diameter + 1, 0, 1, "0 .. D + 1")
    raise KeyError(f"no paper bound recorded for algorithm {algorithm!r}")


def average_messages_dag_star(n: int) -> float:
    """Section 6.2: average messages per entry for the DAG algorithm on a star.

    The paper derives ``3 - 5/N + 2/N**2`` assuming every node is equally
    likely to hold the token and the requester is uniform as well.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return 3.0 - 5.0 / n + 2.0 / (n * n)


def average_messages_centralized_star(n: int) -> float:
    """Section 6.2: average messages per entry for the centralized scheme.

    ``3 - 3/N``: every non-coordinator entry costs three messages and the
    coordinator's own entries cost none.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    return 3.0 - 3.0 / n


def storage_overhead_table(n: int) -> Dict[str, Dict[str, object]]:
    """Section 6.4: per-node state and token/message payload comparison.

    Values are expressed in integer-sized fields; ``n`` only matters for the
    algorithms whose structures grow with the system size.
    """
    return {
        "dag": {
            "per_node_fields": 3,
            "scales_with_n": False,
            "token_payload": 0,
            "request_payload": 2,
            "description": "HOLDING, NEXT, FOLLOW; token empty",
        },
        "raymond": {
            "per_node_fields": 3 + n,  # HOLDER, USING, ASKED + queue up to degree+1
            "scales_with_n": True,
            "token_payload": 0,
            "request_payload": 1,
            "description": "HOLDER, USING, ASKED plus a FIFO request queue",
        },
        "suzuki-kasami": {
            "per_node_fields": n,
            "scales_with_n": True,
            "token_payload": 2 * n,
            "request_payload": 2,
            "description": "RN array; token carries LN array and queue",
        },
        "singhal": {
            "per_node_fields": 2 * n,
            "scales_with_n": True,
            "token_payload": 2 * n,
            "request_payload": 2,
            "description": "SV and SN vectors; token carries TSV and TSN",
        },
        "lamport": {
            "per_node_fields": 2 * n,
            "scales_with_n": True,
            "token_payload": 0,
            "request_payload": 2,
            "description": "request queue and last-heard timestamps",
        },
        "ricart-agrawala": {
            "per_node_fields": 2 * n,
            "scales_with_n": True,
            "token_payload": 0,
            "request_payload": 2,
            "description": "pending-reply and deferred sets",
        },
        "carvalho-roucairol": {
            "per_node_fields": 3 * n,
            "scales_with_n": True,
            "token_payload": 0,
            "request_payload": 2,
            "description": "pending, deferred, and cached-permission sets",
        },
        "maekawa": {
            "per_node_fields": 4 * int(math.ceil(math.sqrt(n))),
            "scales_with_n": True,
            "token_payload": 0,
            "request_payload": 2,
            "description": "committee ids, vote bookkeeping, waiting queue",
        },
        "centralized": {
            "per_node_fields": n,
            "scales_with_n": True,
            "token_payload": 0,
            "request_payload": 1,
            "description": "coordinator keeps a queue of pending requests",
        },
    }
