"""The package graph is layered: no module imports from a layer above its own.

Every ``import`` / ``from ... import`` statement under ``src/repro`` is read
with :mod:`ast` — module-level, function-level and ``TYPE_CHECKING`` ones
alike — and checked against :data:`LAYERS`.  A module may import from its
own layer or any layer below; an upward import fails here, which is what
keeps the kernel (:mod:`repro.core`) a leaf and the packages a DAG.  The
subprocess cases check the same thing from the other side: what importing
a module actually loads.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

import repro

#: The layers, lowest first.  A name is a top-level module or package under
#: ``repro``; ``__main__`` runs the CLI and sits with it.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("exceptions", "benchdoc"),
    ("core",),
    ("sim",),
    ("topology",),
    ("spec_base",),
    ("baselines",),
    ("workload",),
    ("spec",),
    ("cells", "analysis", "obs"),
    ("bench", "sweep", "viz", "runtime"),
    ("cli", "__main__"),
)

LAYER_OF: Dict[str, int] = {
    name: level for level, names in enumerate(LAYERS) for name in names
}

PACKAGE_DIR = Path(repro.__file__).parent


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(path: Path) -> Iterator[Tuple[int, str]]:
    """``(line, dotted name)`` for every import statement in ``path``."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            # ``from repro import spec`` names a submodule, not an attribute.
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}" if base == "repro" else base


def _top(dotted: str) -> str:
    """The ``repro`` sub-package or module a dotted name falls in ("" for the root)."""
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else ""


def _package_edges() -> Dict[Tuple[str, str], List[str]]:
    """Every cross-package import: ``(importer, imported) -> [where]``."""
    edges: Dict[Tuple[str, str], List[str]] = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        importer = _top(_module_name(path))
        if not importer:
            continue  # the root's names are looked up lazily, by string
        for line, dotted in _imported_modules(path):
            if dotted != "repro" and not dotted.startswith("repro."):
                continue
            imported = _top(dotted)
            if imported and imported != importer:
                where = f"{path.relative_to(PACKAGE_DIR.parent)}:{line}"
                edges.setdefault((importer, imported), []).append(where)
    return edges


def test_every_package_has_a_layer():
    found = {_top(_module_name(path)) for path in PACKAGE_DIR.rglob("*.py")} - {""}
    assert found == set(LAYER_OF), (
        f"unlisted: {sorted(found - set(LAYER_OF))}, gone: {sorted(set(LAYER_OF) - found)}"
    )


def test_no_module_imports_from_a_layer_above_its_own():
    upward = [
        f"{importer} (layer {LAYER_OF[importer] + 1}) imports {imported} "
        f"(layer {LAYER_OF[imported] + 1}) at {', '.join(where)}"
        for (importer, imported), where in sorted(_package_edges().items())
        if LAYER_OF[imported] > LAYER_OF[importer]
    ]
    assert not upward, "\n".join(upward)


def test_the_package_graph_has_no_cycle():
    # Same-layer imports are allowed; they still must not close a loop.
    successors: Dict[str, Set[str]] = {}
    for importer, imported in _package_edges():
        successors.setdefault(importer, set()).add(imported)
    done: Set[str] = set()

    def visit(package: str, path: List[str]) -> None:
        if package in path:
            cycle = path[path.index(package):] + [package]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if package in done:
            return
        for imported in sorted(successors.get(package, ())):
            visit(imported, path + [package])
        done.add(package)

    for package in sorted(successors):
        visit(package, [])


def _loaded_by(module: str) -> Set[str]:
    """The ``repro`` modules a fresh interpreter has loaded after ``import module``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = (
        f"import sys, {module}\n"
        "print('\\n'.join(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_importing_a_module_loads_no_layer_above_it():
    assert _loaded_by("repro") == {"repro"}

    core = _loaded_by("repro.core")
    assert "repro.core.node" in core
    assert {_top(name) for name in core} <= {"", "exceptions", "core"}, sorted(core)

    snapshot = _loaded_by("repro.obs.snapshot")
    assert "repro.obs.snapshot" in snapshot
    assert not {_top(name) for name in snapshot} & {"spec", "baselines"}, sorted(snapshot)

    # A package __init__ loads none of its submodules.
    assert _loaded_by("repro.sim.rng") == {"repro", "repro.sim", "repro.sim.rng"}

    # The live service loads no simulator: its spec lives in spec_base.
    simulator = {"repro.spec", "repro.sim.engine", "repro.sim.network", "repro.sim.faults"}
    for module in ("repro.runtime.service", "repro.runtime.lockbench"):
        loaded = _loaded_by(module)
        assert module in loaded
        assert not {_top(name) for name in loaded} & {"baselines", "workload"}, sorted(loaded)
        assert not loaded & simulator, sorted(loaded & simulator)
