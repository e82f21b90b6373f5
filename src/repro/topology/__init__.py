"""Logical topologies for the DAG-based algorithm and the tree-based baseline.

The paper's logical structure is a tree (acyclic even ignoring edge
directions) oriented so every node has out-degree at most one and exactly one
node — the sink — has out-degree zero.  This package provides:

* :class:`~repro.topology.base.Topology` — the undirected tree plus its
  orientation toward an initial token holder, held in flat CSR arrays
  (:mod:`repro.topology.compact`) at every size;
* builders for the topologies discussed in Chapter 6 (line, star /
  "centralized", radiating star, balanced trees, random trees);
* validation helpers enforcing the paper's structural assumptions;
* graph metrics (diameter, path lengths) used by the theoretical bounds.
"""

from repro.topology.base import Topology
from repro.topology.builders import (
    balanced_tree,
    line,
    paper_figure2_topology,
    paper_figure6_topology,
    radiating_star,
    random_tree,
    star,
)
from repro.topology.compact import csr_from_edges
from repro.topology.metrics import (
    diameter,
    eccentricity,
    path_between,
)
from repro.topology.validation import validate_tree

__all__ = [
    "Topology",
    "csr_from_edges",
    "line",
    "star",
    "radiating_star",
    "balanced_tree",
    "random_tree",
    "paper_figure2_topology",
    "paper_figure6_topology",
    "diameter",
    "eccentricity",
    "path_between",
    "validate_tree",
]
