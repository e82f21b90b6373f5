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
#: (with the keys put back the dicts hash to the old pins).
PINS = [
    ("bench", "default", 18, "c10c03ad9a17b7584849a78210ef140932fe082286ffe29e7a77dd5dcef91e3a", "e8c80a52071fb51e0fcb3f8ff47c4e091b9e534be1093813be15fd5d11861840"),
    ("bench", "smoke", 6, "01f72febf6b02b0c4128dd51ecc071bdef7d9d9d1962f3a305e9283f0ca74c67", "fba1914109cd1004c225f59553dfb330f95c05d2b4f8a1348ca5962a66f88653"),
    ("bench", "large", 27, "0fdcb59312502e60b4a63fd9aa862c6f6dcc3798705fc26e5eb86e8e045b9cf9", "c731834e295dbf8d2df503a979fdb3d329fc90376cb40a0820c2765239aa0b2e"),
    ("bench", "xlarge", 29, "c1307e7c266bfb0764c7a4c8b0cfafe3d24e4ca88879bcda733d33364f0f2e86", "ee87f756c9fdc679d6e7434486a64c188cc1f18abb96a48325bd89f8415bc550"),
    ("bench", "xxlarge", 31, "8a148c6d90fdaea9e9d15ebd48d56f6d625d4f4d01866ae6fe9f257ab6b9671e", "9ef4d209735255297f4d09ccaf5d681cedbbe3cf4d0c31b49fca7c03ec11beab"),
    ("bench", "xxxlarge", 33, "130644e39f325fee853ba261b4823a67e781b4e7d49c60f571822a39b400a014", "752606a157cb361ba46c62eb6ee53017d4526ff9dff5a50c8f5902c415f8d16e"),
    ("baselines", "default", 32, "1b8889239e39853854b8fa1e373a53d0e5f54f412048f52c5aec64bda806dfbc", "c6a003ab247c96fbb18beedbe6f1ac055b098592c303c53cced4d855934317eb"),
    ("baselines", "smoke", 8, "566a542a121fc1b442c84ea4df6d653345a0346dfe5222b407d539ee406c6d9d", "3ce3d10b71a0cc872d12a0e8edc47cde4e0ab7cf400af2e35d4435b2c3153863"),
    ("faults", "default", 23, "241a010568028e89eeac0832a7919dbc3a0b9b63de8ffb97550041ab0e0c5f69", "324820be95cc58d068a324fef6d2972d17c948f3ca23a0bdecd15897f0126870"),
    ("faults", "smoke", 8, "9c14698f4e90ec092f3a8f8c93b9431544c356e5413ce06b2bfee133db574d2d", "0889e5fab5edd5c7a25f168648d2a30f4a4265ec284681e90fcd55f9bb397d08"),
    ("sweep", "default", 216, "75200767e17bf5c25d729024e72334c78537570c2468fabb2d55f9395f84c432", "6e3ded2b9701105955c15072d58dce1189339cd23495431faabb6f684b3f84b4"),
    ("sweep", "smoke", 18, "1636ccf9c8dae1b1b5ac2d8d9e55134056b1f892a2e17e30e631646af51cfc96", "1237f8f915b83b6cb2a7673d08190c6476e6d2508f93213581ba0605d52da127"),
    ("sweep", "large", 222, "5943bb3d581e97801e7c173aff1d87014ec23fbc4ca18b650c7d8dc0810d4395", "10dcf91d7a4bb88531df5b9efcf24d1d40b22124b2b0672abdd16796f9c61323"),
    ("sweep", "xlarge", 228, "b2f2a1f982ca7509394bd742fb98d3bec6962d88edabc02f317746bfe5d47197", "ccadf3cd4f14f77f10d3b57486e47b145042395087b8eb2e975388d060ea1e64"),
    ("sweep", "xxlarge", 232, "b7ffda64885ade7a64d7a7c730645f219e8404848a0c101b2284a3a968d87347", "c4d07f11ae05d0c989abe321999fcb76281a2c0e0e79ac3951d7b66cf306b212"),
    ("sweep", "faults", 55, "aac70de8876cdb48a4d7bf2ff624a378055f63f22b6a89e5bdd9dcbab0d5f34a", "a6cbe67bd234e75e06d641b10d55cc0119e2c644fa145ffcffef0cc3758bcbe5"),
    ("lockbench", "default", 4, "b287522394eff384715162326de38db6fa968240d84d9c3e431eae317ee82b96", "d47a4e612572d11bf949912964a2858eed57a4ca7ac771082d2c9dbe7cc2f1dd"),
    ("lockbench", "smoke", 1, "82c60df95e50533544aaec48fa43735a5b2103c58a34c495b85c8d2dad400673", "fed31f1da0c70ebaab5d848230b0160efb1789354260f201843ee4c89983f927"),
    ("lockbench", "faults", 2, "3ffe31c5d91886496e7399493fbb40094b0e6bd42ea68a422a0973f5834df02c", "49e4bc7f9483a08307badc02d623810c0970b457294af1ec04fc58255c9b033c"),
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
