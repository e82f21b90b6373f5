"""Every closed-form builder must agree with the generic edge-list path.

The family builders write their CSR arrays — adjacency, offsets, the
orientation toward the holder, the diameter — in closed form; the one
validated entry for an explicit edge list, :meth:`Topology.from_edges`, fills
the same arrays with :func:`csr_from_edges` and derives the orientation and
diameter by search.  These tests build both for every cell size of the
benchmark smoke matrix (and an assortment of edge shapes) and compare query
by query.  A subprocess test pins the 1M-node construction's peak RSS, the
number the streaming-pipeline tier depends on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.bench import bench_matrix
from repro.exceptions import TopologyError
from repro.topology import (
    Topology,
    balanced_tree,
    diameter,
    line,
    radiating_star,
    random_tree,
    star,
)


def tree_args(n: int):
    """The benchmark's tree sizing rule (depth from node count)."""
    return 2, max(1, (n - 1).bit_length() - 1)


def radiating_args(n: int):
    """The command line's radiating-star sizing rule (arms from node count)."""
    arms = max(2, round((n - 1) ** 0.5))
    return arms, max(1, (n - 1) // arms)


def line_edges(n):
    return [(v, v + 1) for v in range(1, n)]


def star_edges(n):
    return [(1, v) for v in range(2, n + 1)]


def tree_edges(branching, depth):
    """Level-order numbering: node ``v``'s parent is ``(v - 2) // b + 1``."""
    n = sum(branching ** level for level in range(depth + 1))
    return [((v - 2) // branching + 1, v) for v in range(2, n + 1)]


def radiating_edges(arms, arm_length):
    """The hub, then each arm numbered outward, one arm after the other."""
    edges, next_id = [], 2
    for _ in range(arms):
        previous = 1
        for _ in range(arm_length):
            edges.append((previous, next_id))
            previous, next_id = next_id, next_id + 1
    return edges


def assert_equivalent(built: Topology, reference: Topology) -> None:
    """Every public topology query must agree between the two paths."""
    assert list(built.nodes) == list(reference.nodes)
    assert built.size == reference.size
    assert built.edges == reference.edges
    assert built.token_holder == reference.token_holder
    for node in reference.nodes:
        assert built.neighbors(node) == reference.neighbors(node)
        assert built.degree(node) == reference.degree(node)
    assert dict(built.next_pointers()) == dict(reference.next_pointers())
    assert built.parent == reference.parent
    assert diameter(built) == diameter(reference)


@pytest.mark.parametrize("kind", ["line", "star", "tree", "radiating"])
@pytest.mark.parametrize("n", sorted({cell.experiment.topology.n for cell in bench_matrix("smoke")}))
def test_smoke_matrix_families_equal_reference(kind, n):
    if kind == "line":
        built, edges = line(n), line_edges(n)
    elif kind == "star":
        built, edges = star(n), star_edges(n)
    elif kind == "tree":
        built, edges = balanced_tree(*tree_args(n)), tree_edges(*tree_args(n))
    else:
        built, edges = radiating_star(*radiating_args(n)), radiating_edges(*radiating_args(n))
    assert built.diameter_hint is not None  # the closed form, not a search
    assert_equivalent(built, Topology.from_edges(edges, token_holder=1))


EDGE_SHAPES = {
    "line(1)": (lambda: line(1), [], 1),
    "line(2)": (lambda: line(2), line_edges(2), 1),
    "line(9)@4": (lambda: line(9, token_holder=4), line_edges(9), 4),
    "star(1)": (lambda: star(1), [], 1),
    "star(2)": (lambda: star(2), star_edges(2), 1),
    "star(9)@4": (lambda: star(9, token_holder=4), star_edges(9), 4),
    "star(9)->7": (lambda: star(9).with_token_holder(7), star_edges(9), 7),
    "star(9)@9": (lambda: star(9, token_holder=9), star_edges(9), 9),
    "tree(1,0)": (lambda: balanced_tree(1, 0), [], 1),
    "tree(1,4)": (lambda: balanced_tree(1, 4), tree_edges(1, 4), 1),
    "tree(3,3)": (lambda: balanced_tree(3, 3), tree_edges(3, 3), 1),
    "tree(2,3)->11": (lambda: balanced_tree(2, 3).with_token_holder(11), tree_edges(2, 3), 11),
    "radiating(1,1)": (lambda: radiating_star(1, 1), radiating_edges(1, 1), 1),
    "radiating(1,4)": (lambda: radiating_star(1, 4), radiating_edges(1, 4), 1),
    "radiating(5,1)": (lambda: radiating_star(5, 1), radiating_edges(5, 1), 1),
    "radiating(4,3)": (lambda: radiating_star(4, 3), radiating_edges(4, 3), 1),
    "radiating(3,3)->8": (
        lambda: radiating_star(3, 3).with_token_holder(8), radiating_edges(3, 3), 8
    ),
}


@pytest.mark.parametrize("shape", list(EDGE_SHAPES))
def test_edge_shapes_equal_reference(shape):
    build, edges, holder = EDGE_SHAPES[shape]
    assert_equivalent(build(), Topology.from_edges(edges, token_holder=holder))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
@pytest.mark.parametrize("seed", [0, 7])
def test_random_tree_is_its_edge_list_in_any_order(n, seed):
    """The CSR fill is canonical: the decoded edges, reversed and each pair
    flipped, make the same topology, rooted at either end of the id range."""
    built = random_tree(n, seed=seed)
    flipped = [(b, a) for a, b in reversed(built.edges)]
    assert_equivalent(built, Topology.from_edges(flipped, token_holder=1))
    assert_equivalent(
        random_tree(n, seed=seed, token_holder=n), Topology.from_edges(flipped, token_holder=n)
    )


def test_non_default_orientation_matches_reference():
    built = star(30)
    reference = Topology.from_edges(star_edges(30), token_holder=1)
    for toward in (1, 13, 30):
        assert_equivalent(built.with_token_holder(toward), reference.with_token_holder(toward))
    assert built.with_token_holder(built.token_holder) is built


def test_next_pointers_view_behaves_like_a_mapping():
    topology = balanced_tree(2, 3)
    pointers = topology.next_pointers()
    assert len(pointers) == topology.size
    assert pointers[1] is None  # the holder is the sink
    assert pointers[4] == 2
    assert set(pointers) == set(topology.nodes)
    assert pointers.get(9999) is None  # Mapping.get on unknown node
    with pytest.raises(KeyError):
        pointers[9999]


def test_unknown_nodes_are_rejected():
    topology = star(12)
    with pytest.raises(TopologyError):
        topology.neighbors(13)
    with pytest.raises(TopologyError):
        topology.degree(0)
    with pytest.raises(TopologyError):
        topology.with_token_holder(99)
    with pytest.raises(TopologyError):
        star(10, token_holder=11)


def test_million_node_balanced_tree_builds_in_bounded_rss():
    """Peak-RSS bound for the 1M-node build, measured in a fresh process so
    earlier tests cannot inflate (or mask) the number.

    A dict-of-tuples adjacency needs roughly a gigabyte here; the CSR arrays
    plus interpreter baseline stay comfortably under 400 MB.
    """
    code = (
        "import resource, sys\n"
        "from repro.topology import balanced_tree, diameter\n"
        "t = balanced_tree(2, 19)\n"  # 2**20 - 1 = 1_048_575 nodes
        "assert t.size == 1_048_575\n"
        "assert diameter(t) == 38\n"
        "assert t.neighbors(1) == (2, 3)\n"
        "assert t.next_pointers()[t.size] == (t.size - 2) // 2 + 1\n"
        "peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert peak_kb < 400_000, f'peak RSS {peak_kb} kB'\n"
        "print(peak_kb)\n"
    )
    # The child must find the package whether the suite runs from a source
    # checkout (pythonpath = src) or an installed wheel.
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (source_root, env.get("PYTHONPATH")) if path
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.strip()) < 400_000
