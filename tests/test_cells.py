"""The scenario matrices, pinned: "nothing moved" as a checkable statement.

Every (document, tier) matrix is pinned by its size, the sha256 of its ordered
cell names and the sha256 of its ordered spec dictionaries.  The literals were
generated from the twenty per-tier functions at commit a4097a8, before they
became rows of :data:`repro.cells.TIERS`; a matrix edit that renames, reorders
or re-parameterises a committed cell fails here before it fails a CI ``cmp``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import cells
from repro.bench import construction_matrix
from repro.runtime.lockbench import LockProbe, lockbench_matrix

MATRICES = {
    "bench": cells.bench_matrix,
    "baselines": cells.baseline_matrix,
    "faults": cells.fault_matrix,
    "sweep": cells.sweep_matrix,
    "lockbench": lockbench_matrix,
}

#: (document, tier, cells, sha256 of the names, sha256 of the spec dicts).
#: The three lockbench spec digests were re-pinned once, at PR 21: the cells'
#: ``obs`` blocks lost ``trace`` / ``trace_capacity``, two keys nothing read
#: (with the keys put back the dicts hash to the old pins).  Every spec digest
#: was re-pinned once more when ``TopologySpec`` lost ``compact``, a field
#: every cell left at ``None`` (with ``"compact": None`` put back into each
#: topology dict, all nineteen hash to their previous pins), and the sixteen
#: experiment digests once more when ``WorkloadSpec`` lost ``streaming`` and
#: ``chunk_requests`` (with ``"chunk_requests": None`` put back into each
#: workload dict, and ``"streaming"`` as ``True`` on the heavy cells of
#: ``STREAMING_NODE_THRESHOLD`` nodes or more and ``None`` elsewhere, all
#: sixteen hash to their previous pins).
PINS = [
    ("bench", "default", 18, "c10c03ad9a17b7584849a78210ef140932fe082286ffe29e7a77dd5dcef91e3a", "c392b65f69903c8a1e9abdcea347decf6825391dc6c5a9c53cac0dde6da27973"),
    ("bench", "smoke", 6, "01f72febf6b02b0c4128dd51ecc071bdef7d9d9d1962f3a305e9283f0ca74c67", "81ce5d3a06b55e17cd6ffe23909141db5c40b4c97a4202ffbb16e721743e7769"),
    ("bench", "large", 27, "0fdcb59312502e60b4a63fd9aa862c6f6dcc3798705fc26e5eb86e8e045b9cf9", "12dcd0fceb29a6341b8de8ab7c463977ab4bff5247eb64c00828d4ea6f31fb81"),
    ("bench", "xlarge", 29, "c1307e7c266bfb0764c7a4c8b0cfafe3d24e4ca88879bcda733d33364f0f2e86", "5a94dfbf2e13c56729fd698ad32dcbfd7a0389a64fc1e66c868ea8f127baead4"),
    ("bench", "xxlarge", 31, "8a148c6d90fdaea9e9d15ebd48d56f6d625d4f4d01866ae6fe9f257ab6b9671e", "c44009549c8feefe6c35239d03d5682a29aa8868d7e4bf575844cf88da9510a3"),
    ("bench", "xxxlarge", 33, "130644e39f325fee853ba261b4823a67e781b4e7d49c60f571822a39b400a014", "752aefd872b610c0fbf0728a18c03ea2334d9b0b820e486d8fd3f17d9c664c5c"),
    ("baselines", "default", 32, "1b8889239e39853854b8fa1e373a53d0e5f54f412048f52c5aec64bda806dfbc", "7c9ea4ca213fa7e8f007708d14f948c0b0dde59dc7e97c56b88c45f348662b65"),
    ("baselines", "smoke", 8, "566a542a121fc1b442c84ea4df6d653345a0346dfe5222b407d539ee406c6d9d", "07e93c9cf83febdc50fc4720ae3208a11d82cbe032258aa6be418c2d0e34ce02"),
    ("faults", "default", 23, "241a010568028e89eeac0832a7919dbc3a0b9b63de8ffb97550041ab0e0c5f69", "86f5a3eebbe6acfb931549857b155b955d26e996d6175020b64a1d1ac13652bf"),
    ("faults", "smoke", 8, "9c14698f4e90ec092f3a8f8c93b9431544c356e5413ce06b2bfee133db574d2d", "e4f585ae653672ee08e9a592a2f872be17bc596575fd8e76035780ff6a652eae"),
    ("sweep", "default", 216, "75200767e17bf5c25d729024e72334c78537570c2468fabb2d55f9395f84c432", "3ba4589b3d1ec407d6bd7330cfbc2c4e865090b3011a02727d8313867b5e909b"),
    ("sweep", "smoke", 18, "1636ccf9c8dae1b1b5ac2d8d9e55134056b1f892a2e17e30e631646af51cfc96", "7e12ee34b2901332dce2eb9c16937cd4ff47cba3b2af2f037a94501d20a676e1"),
    ("sweep", "large", 222, "5943bb3d581e97801e7c173aff1d87014ec23fbc4ca18b650c7d8dc0810d4395", "87a269f4981e58d1adb83531dfdca8993cc3d9cfb381ce4a0459cf9f1178892d"),
    ("sweep", "xlarge", 228, "b2f2a1f982ca7509394bd742fb98d3bec6962d88edabc02f317746bfe5d47197", "50fe6fc2f720d45032852f70d0c7ed0c35232241caad254b41473e713001514d"),
    ("sweep", "xxlarge", 232, "b7ffda64885ade7a64d7a7c730645f219e8404848a0c101b2284a3a968d87347", "fd50fe981ad6e6dd7339a7902afb62ef40851e151281c2024b61d8fae5ccf3b1"),
    ("sweep", "faults", 55, "aac70de8876cdb48a4d7bf2ff624a378055f63f22b6a89e5bdd9dcbab0d5f34a", "c817e524429e74ab610cd2c7fa9777c8ef0a5904445eb4983d80dbdc4d0a161e"),
    ("lockbench", "default", 4, "b287522394eff384715162326de38db6fa968240d84d9c3e431eae317ee82b96", "fbddc223215a33d00a748c60e006cd55590f9f9c1a4f39d0a4e7e9d94a547899"),
    ("lockbench", "smoke", 1, "82c60df95e50533544aaec48fa43735a5b2103c58a34c495b85c8d2dad400673", "c1cae47bb63b28e8b41b0e4a215587b858075a4af94a091debe87c1fa5dd4947"),
    ("lockbench", "faults", 2, "3ffe31c5d91886496e7399493fbb40094b0e6bd42ea68a422a0973f5834df02c", "2461b54ceb86cf1c8a891614e8de4d3252334593f384470b4efbb907e01232d2"),
]


def sha(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("document, tier, size, names_sha, specs_sha", PINS)
def test_matrix_is_pinned(document, tier, size, names_sha, specs_sha):
    matrix = MATRICES[document](tier)
    specs = [
        (cell.spec if document == "lockbench" else cell.experiment).to_dict()
        for cell in matrix
    ]
    assert len(matrix) == size
    assert sha([cell.name for cell in matrix]) == names_sha
    assert sha(specs) == specs_sha


def test_all_nineteen_matrices_are_pinned():
    pinned = {(document, tier) for document, tier, *_ in PINS}
    assert len(PINS) == len(pinned) == 19
    # Every row of the table belongs to a pinned (document, tier) matrix.
    assert {(rung.document, rung.tier) for rung in cells.TIERS} <= pinned


def test_lockbench_cells_are_named_and_probed_as_committed():
    names = {tier: [cell.name for cell in lockbench_matrix(tier)]
             for tier in ("default", "smoke", "faults")}
    assert names == {
        "default": [
            "unix-s1-c100-k16-o20",
            "unix-s2-c1000-k64-o10",
            "unix-s4-c1000-k256-o10",
            "tcp-s2-c1000-k64-o10",
        ],
        "smoke": ["unix-s2-c1000-k64-o10"],
        "faults": ["unix-s2-c1000-k64-o10+crash1", "unix-s2-c100-k64-o10+drop1"],
    }
    # The probe is the half of a cell the spec hash does not cover.
    assert [cell.probe for cell in lockbench_matrix("faults")] == [
        LockProbe(clients=1000, locks=64, ops=10, channels=8, seed=0, op_timeout=5.0),
        LockProbe(clients=100, locks=64, ops=10, channels=8, seed=0, op_timeout=1.0),
    ]
    assert [cell.probe for cell in lockbench_matrix()] == [
        LockProbe(clients=100, locks=16, ops=20),
        LockProbe(clients=1000, locks=64, ops=10),
        LockProbe(clients=1000, locks=256, ops=10),
        LockProbe(clients=1000, locks=64, ops=10),
    ]


def test_construction_filter_keeps_the_large_cells_of_the_top_tier():
    assert [cell.name for cell in construction_matrix(cells.bench_matrix("xxxlarge"))] == [
        "star-n100000-heavy",
        "tree-n100000-heavy",
        "star-n1000000-heavy",
        "tree-n1000000-heavy",
        "star-n10000000-heavy",
        "tree-n10000000-heavy",
    ]


def test_tiers_are_cumulative_along_the_ladder():
    for document in ("bench", "sweep"):
        previous = []
        for tier in cells.LADDER:
            if not any((rung.document, rung.tier) == (document, tier) for rung in cells.TIERS):
                continue
            matrix = MATRICES[document](tier)
            assert matrix[: len(previous)] == previous, (document, tier)
            previous = matrix


def test_the_matrix_module_stays_out_of_the_spec_and_runtime_imports():
    """Shard processes import repro.runtime; one extra module there once cost
    the svc_* workloads ~3 % ops/s, so the matrices stay out of that closure."""
    import subprocess
    import sys

    probe = (
        "import sys, repro.spec, repro.runtime; "
        "sys.exit('repro.cells' in sys.modules or 'repro.bench' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", probe], check=False).returncode == 0
