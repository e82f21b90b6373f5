"""Array-backed (CSR) topologies must be indistinguishable from dict-backed.

The builders switch representation above ``COMPACT_NODE_THRESHOLD``; the
contract is that nothing observable changes — adjacency, orientation, leaves,
degrees, diameter — so these tests build both representations for every cell
of the benchmark smoke matrix (and an assortment of edge shapes) and compare
query by query.  A subprocess test pins the 1M-node construction's peak RSS,
the number the streaming-pipeline tier depends on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.bench import bench_matrix
from repro.spec import TopologySpec
from repro.exceptions import TopologyError
from repro.topology import (
    COMPACT_NODE_THRESHOLD,
    CompactTopology,
    Topology,
    balanced_tree,
    diameter,
    line,
    random_tree,
    star,
)
from repro.workload import WorkloadGenerator, run_experiment


def tree_args(n: int):
    """The benchmark's tree sizing rule (depth from node count)."""
    return 2, max(1, (n - 1).bit_length() - 1)


def assert_equivalent(compact: Topology, reference: Topology) -> None:
    """Every public topology query must agree across representations."""
    assert isinstance(compact, CompactTopology)
    assert not isinstance(reference, CompactTopology)
    assert list(compact.nodes) == list(reference.nodes)
    assert compact.size == reference.size
    assert compact.edges == reference.edges
    assert compact.token_holder == reference.token_holder
    assert compact.leaves() == reference.leaves()
    for node in reference.nodes:
        assert compact.neighbors(node) == reference.neighbors(node)
        assert compact.degree(node) == reference.degree(node)
    assert dict(compact.next_pointers()) == reference.next_pointers()
    assert diameter(compact) == diameter(reference)


@pytest.mark.parametrize("kind", ["line", "star", "tree"])
@pytest.mark.parametrize("n", sorted({cell.experiment.topology.n for cell in bench_matrix("smoke")}))
def test_smoke_matrix_families_equal_reference(kind, n):
    if kind == "line":
        compact, reference = line(n, compact=True), line(n, compact=False)
    elif kind == "star":
        compact, reference = star(n, compact=True), star(n, compact=False)
    else:
        b, d = tree_args(n)
        compact = balanced_tree(b, d, compact=True)
        reference = balanced_tree(b, d, compact=False)
    assert_equivalent(compact, reference)


@pytest.mark.parametrize(
    "build",
    [
        lambda c: line(1, compact=c),
        lambda c: line(2, compact=c),
        lambda c: line(9, token_holder=4, compact=c),
        lambda c: star(1, compact=c),
        lambda c: star(2, compact=c),
        lambda c: star(9, token_holder=4, compact=c),
        lambda c: star(9, compact=c).with_token_holder(7),
        lambda c: star(9, token_holder=9, compact=c),
        lambda c: balanced_tree(1, 0, compact=c),
        lambda c: balanced_tree(1, 4, compact=c),
        lambda c: balanced_tree(3, 3, compact=c),
        lambda c: balanced_tree(2, 3, compact=c).with_token_holder(11),
    ],
)
def test_edge_shapes_equal_reference(build):
    assert_equivalent(build(True), build(False))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
@pytest.mark.parametrize("seed", [0, 7])
def test_random_tree_is_identical_across_representations(n, seed):
    compact = random_tree(n, seed=seed, compact=True)
    reference = random_tree(n, seed=seed, compact=False)
    assert_equivalent(compact, reference)


def test_non_default_orientation_matches_reference():
    compact = star(30, compact=True)
    reference = star(30, compact=False)
    for toward in (1, 13, 30):
        assert (dict(compact.with_token_holder(toward).next_pointers())
                == reference.with_token_holder(toward).next_pointers())
    rerooted = compact.with_token_holder(13)
    assert isinstance(rerooted, CompactTopology)
    assert dict(rerooted.next_pointers()) == reference.with_token_holder(13).next_pointers()
    assert compact.with_token_holder(compact.token_holder) is compact


def test_next_pointers_view_behaves_like_a_mapping():
    compact = balanced_tree(2, 3, compact=True)
    pointers = compact.next_pointers()
    assert len(pointers) == compact.size
    assert pointers[1] is None  # the holder is the sink
    assert pointers[4] == 2
    assert set(pointers) == set(compact.nodes)
    assert pointers.get(9999) is None  # Mapping.get on unknown node
    with pytest.raises(KeyError):
        pointers[9999]


def test_unknown_nodes_are_rejected():
    compact = star(12, compact=True)
    with pytest.raises(TopologyError):
        compact.neighbors(13)
    with pytest.raises(TopologyError):
        compact.degree(0)
    with pytest.raises(TopologyError):
        compact.with_token_holder(99)
    with pytest.raises(TopologyError):
        star(10, token_holder=11, compact=True)


def test_builders_auto_select_compact_at_threshold():
    assert isinstance(star(COMPACT_NODE_THRESHOLD), CompactTopology)
    assert not isinstance(star(100), CompactTopology)
    assert isinstance(line(COMPACT_NODE_THRESHOLD), CompactTopology)
    assert not isinstance(balanced_tree(2, 5), CompactTopology)
    # TopologySpec.build (the frozen benchmark path) inherits the auto-selection.
    assert isinstance(TopologySpec(kind="star", n=100_000).build(), CompactTopology)
    assert not isinstance(TopologySpec(kind="star", n=1000).build(), CompactTopology)


def test_replay_is_identical_across_representations():
    """The whole point: swapping representation can never change a replay."""
    for algorithm in ("dag", "raymond"):
        results = []
        for compact in (True, False):
            topology = star(15, compact=compact)
            workload = WorkloadGenerator(topology.nodes, seed=3).heavy_demand(rounds=3)
            result = run_experiment(algorithm, topology, workload)
            results.append(
                (
                    result.entry_order,
                    result.total_messages,
                    result.messages_by_type,
                    result.finished_at,
                )
            )
        assert results[0] == results[1], algorithm


def test_million_node_balanced_tree_builds_in_bounded_rss():
    """Peak-RSS bound for the compact 1M-node build, measured in a fresh
    process so earlier tests cannot inflate (or mask) the number.

    The dict-backed representation needs roughly a gigabyte here; the CSR
    arrays plus interpreter baseline stay comfortably under 400 MB.
    """
    code = (
        "import resource, sys\n"
        "from repro.topology import balanced_tree, CompactTopology, diameter\n"
        "t = balanced_tree(2, 19)\n"  # 2**20 - 1 = 1_048_575 nodes
        "assert isinstance(t, CompactTopology)\n"
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
