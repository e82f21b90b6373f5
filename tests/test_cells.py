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
#: topology dict, all nineteen hash to their previous pins).
PINS = [
    ("bench", "default", 18, "c10c03ad9a17b7584849a78210ef140932fe082286ffe29e7a77dd5dcef91e3a", "18454eb464423eccb5e8ea5321f3d9f2dc60fca42d479c08e11ebdc18edf52c2"),
    ("bench", "smoke", 6, "01f72febf6b02b0c4128dd51ecc071bdef7d9d9d1962f3a305e9283f0ca74c67", "6a8ccdeefbb908290210ec38b7d12454ac19621a8bbb19cfc160d1749efa6343"),
    ("bench", "large", 27, "0fdcb59312502e60b4a63fd9aa862c6f6dcc3798705fc26e5eb86e8e045b9cf9", "5d2b2815ea62c2e6d4af85c6cda959adfecc0f0fce7aedb49c323f1b935d3fb4"),
    ("bench", "xlarge", 29, "c1307e7c266bfb0764c7a4c8b0cfafe3d24e4ca88879bcda733d33364f0f2e86", "ed9db52df551f8ec3f1cbcfa5879d132e55728e07b47a93c51cf9f4eb603a9d2"),
    ("bench", "xxlarge", 31, "8a148c6d90fdaea9e9d15ebd48d56f6d625d4f4d01866ae6fe9f257ab6b9671e", "cad7dbd80ccedbda6147b2af823716a34e46ff619b9fa8937f69cd73e541b4b2"),
    ("bench", "xxxlarge", 33, "130644e39f325fee853ba261b4823a67e781b4e7d49c60f571822a39b400a014", "f0dbebe74ef03eda1f21e908eced5f4b304868c454c8ae0463b42586a56993c3"),
    ("baselines", "default", 32, "1b8889239e39853854b8fa1e373a53d0e5f54f412048f52c5aec64bda806dfbc", "0a441b7b8e1748e70750a078d04d761a84375814ca4d8764bcab612fa9e37f95"),
    ("baselines", "smoke", 8, "566a542a121fc1b442c84ea4df6d653345a0346dfe5222b407d539ee406c6d9d", "744005eabaead6c7a0e0c384660f9034e0012bcde9a2c6ec41cbc5880ebc65c3"),
    ("faults", "default", 23, "241a010568028e89eeac0832a7919dbc3a0b9b63de8ffb97550041ab0e0c5f69", "666b5d46d944f4e5f07700382133fbfcad746f7d65faffa0cc9be5416b99cc57"),
    ("faults", "smoke", 8, "9c14698f4e90ec092f3a8f8c93b9431544c356e5413ce06b2bfee133db574d2d", "07279e10cee542944731fae9792c1a0695ff1d0e7e307f55acb23a6a10175fdc"),
    ("sweep", "default", 216, "75200767e17bf5c25d729024e72334c78537570c2468fabb2d55f9395f84c432", "ec546c558b475a360cf44d8616876ddb3fb5d9814f958da46aa9a22999454fcc"),
    ("sweep", "smoke", 18, "1636ccf9c8dae1b1b5ac2d8d9e55134056b1f892a2e17e30e631646af51cfc96", "a28a7fb3cb5f7f3a4b7959e0dc3a88eb596de893d912396cabca1f2865b4da30"),
    ("sweep", "large", 222, "5943bb3d581e97801e7c173aff1d87014ec23fbc4ca18b650c7d8dc0810d4395", "7bbea91a611b63862e3d204bdd6bf501d981abf99a00b9acd9c598db1db8f7e3"),
    ("sweep", "xlarge", 228, "b2f2a1f982ca7509394bd742fb98d3bec6962d88edabc02f317746bfe5d47197", "c7fd3d242611f59d65d5ed93ba4dbe398c1ef0f980c1be1d5bc3c362129bcabf"),
    ("sweep", "xxlarge", 232, "b7ffda64885ade7a64d7a7c730645f219e8404848a0c101b2284a3a968d87347", "d3b17e9628b6d4a3b763fc8db0aa6dba61475520bda1c0a81fd52f254ccfc783"),
    ("sweep", "faults", 55, "aac70de8876cdb48a4d7bf2ff624a378055f63f22b6a89e5bdd9dcbab0d5f34a", "995d93b0000087b39d256886a69c0ff6092c5d5f086835f18adde651938a7529"),
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
