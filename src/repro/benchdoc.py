"""Committed benchmark documents: what one is, and how a fresh run is held to it.

Every ``BENCH_*.json`` at the repository root has the same shape — a
``schema`` tag, provenance, and a ``scenarios`` list of rows keyed by
``scenario`` name — and the same life cycle: ``--calibrate N`` runs the
matrix N times and :func:`merge` keeps the worst observation of every
wall-clock field, the result is committed, and CI holds each fresh run against
it with :func:`check`.  What differs between the documents is only *which
fields* are deterministic, which are rates and which are latencies; that is
the :class:`GateSpec` table below, one constant per committed document.

Field paths are dotted (``timing.failover.availability``).  A row that lacks a
path simply does not take part in that comparison, which is how one table
serves rows with and without a ``recovery`` / ``failover`` / ``fairness``
block.

Standard library only: ``repro.runtime`` imports this module, and every lock
service shard process imports ``repro.runtime``.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

Document = Dict[str, Any]


@dataclass(frozen=True)
class GateSpec:
    """Which row fields of one committed document are compared, and how."""

    #: The ``schema`` tag a committed document must carry to be checked here.
    schema: str
    #: Deterministic fields: equal across calibration runs, equal to committed.
    exact: Tuple[str, ...] = ()
    #: Higher-is-better wall-clock fields.  Merged by minimum; a fresh value
    #: may fall to ``committed * (1 - tolerance)``.  Each maps to the fields
    #: that ride along with it when the slower run wins the merge.
    floors: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Lower-is-better wall-clock fields.  Merged by maximum; a fresh value
    #: may rise to ``committed * (1 + latency_tolerance)``.
    ceilings: Tuple[str, ...] = ()
    #: Fields that fail the gate when nonzero, committed reference or not.
    must_be_zero: Tuple[str, ...] = ()
    #: Fields or whole blocks merged by maximum and not gated.
    worst_of: Tuple[str, ...] = ()


THROUGHPUT = GateSpec(
    schema="bench-throughput/v1",
    exact=("events", "messages", "entries"),
    floors={"events_per_sec": ("messages_per_sec", "wall_seconds", "peak_rss_kb")},
)

#: ``BENCH_baselines.json`` rows share the throughput rows' gated fields.
BASELINES = replace(THROUGHPUT, schema="bench-baselines/v1")

FAULTS = GateSpec(
    schema="bench-faults/v1",
    exact=(
        "entries",
        "messages",
        "events",
        "finished_at",
        "total_faults",
        "fault_log_sha256",
        "unserved_nodes",
        "lost_requests",
        "protocol_error",
        "recovery.token_lost_at",
        "recovery.regenerated_at",
        "recovery.new_holder",
        "recovery.reissued",
        "recovery.time_to_liveness",
    ),
    floors={"timing.events_per_sec": ("timing.wall_seconds",)},
)

RUNTIME = GateSpec(
    schema="bench-runtime/v1",
    exact=("ops_total", "ops_completed", "errors"),
    floors={
        "timing.locks_per_sec": ("timing.wall_seconds",),
        "timing.failover.availability": (),
    },
    ceilings=("timing.acquire_p99_ms", "timing.failover.takeover_ms"),
    # Mutual exclusion is the product: absolute, on every run.
    must_be_zero=("exclusion_violations",),
    worst_of=(
        "timing.acquire_p50_ms",
        "timing.acquire_mean_ms",
        "timing.acquire_max_ms",
        "timing.fairness",
        "timing.failover",
    ),
)


def _get(row: Mapping[str, Any], path: str) -> Any:
    """The value at a dotted path, or ``None`` when any step is missing."""
    value: Any = row
    for key in path.split("."):
        if not isinstance(value, Mapping):
            return None
        value = value.get(key)
    return value


def _set(row: Dict[str, Any], path: str, value: Any) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        row = row[key]
    row[leaf] = value


def _keep_worst(
    row: Dict[str, Any], other: Mapping[str, Any], path: str, skip: Iterable[str]
) -> None:
    """Max-merge ``other``'s field or block at ``path`` into ``row``.

    A side that lacks the path (a calibration run older than the fairness
    block, a ``None`` queue depth) adopts the other side's value; paths in
    ``skip`` are left alone (a floor inside a worst-of block).
    """
    theirs = _get(other, path)
    if theirs is None or path in skip:
        return
    mine = _get(row, path)
    if mine is None:
        _set(row, path, copy.deepcopy(theirs))
    elif isinstance(mine, dict):
        for key in mine:
            _keep_worst(row, other, f"{path}.{key}", skip)
    else:
        _set(row, path, max(mine, theirs))


def merge(gate: GateSpec, documents: Sequence[Document]) -> Document:
    """Merge runs of one matrix into a conservative committed reference.

    Exact and must-be-zero fields have to agree across the runs (they are
    deterministic; disagreement means the run drifted and the merge raises).
    Floors keep the slowest run together with the fields that ride along with
    it, ceilings and worst-of blocks keep the largest observation — so the
    committed document never encodes a lucky run.  Everything else, including
    the top-level keys, comes from the first document; inputs are untouched.
    """
    if not documents:
        raise ValueError("merge needs at least one document")
    merged = copy.deepcopy(documents[0])
    for document in documents[1:]:
        if len(document["scenarios"]) != len(merged["scenarios"]):
            raise ValueError("documents cover different scenario matrices")
        for row, other in zip(merged["scenarios"], document["scenarios"]):
            name = row["scenario"]
            if name != other["scenario"]:
                raise ValueError(
                    f"scenario order mismatch: {name!r} vs {other['scenario']!r}"
                )
            for path in gate.exact + gate.must_be_zero:
                if _get(row, path) != _get(other, path):
                    raise ValueError(
                        f"{name}: {path} {_get(row, path)!r} != "
                        f"{_get(other, path)!r} (run no longer deterministic?)"
                    )
            for path in gate.ceilings + gate.worst_of:
                _keep_worst(row, other, path, gate.floors)
            for path, carried in gate.floors.items():
                mine, theirs = _get(row, path), _get(other, path)
                if mine is not None and theirs is not None and theirs < mine:
                    for moved in (path, *carried):
                        _set(row, moved, _get(other, moved))
    return merged


def calibrate(
    gate: GateSpec,
    run_once: Callable[[int], Document],
    runs: int,
    *,
    verbose: bool = False,
) -> Document:
    """Run a matrix ``runs`` times (``run_once(index)``) and :func:`merge`.

    Single-run rates on a busy machine are too noisy to gate against, so this
    is how every committed reference is (re)produced (``--calibrate N``).
    """
    if runs < 1:
        raise ValueError(f"calibration needs at least 1 run, got {runs}")
    documents = []
    for index in range(runs):
        if verbose:
            print(f"calibration run {index + 1}/{runs}:")
        documents.append(run_once(index))
    return merge(gate, documents)


def check(
    gate: GateSpec,
    rows: Iterable[Mapping[str, Any]],
    committed: Document,
    *,
    tolerance: float,
    latency_tolerance: float = 0.0,
) -> Tuple[List[str], int]:
    """Hold fresh rows against a committed document.

    Returns ``(problems, compared)``: human-readable problem descriptions
    (empty means the gate is green) and how many fresh rows had a committed
    reference.  Rows the committed document does not name are skipped —
    matrix growth is not a regression — but a committed document of the
    wrong schema, or one that names *none* of the fresh rows, is a problem:
    a gate that compared nothing has not passed.
    """
    rows = list(rows)
    problems: List[str] = []
    for row in rows:
        for path in gate.must_be_zero:
            if _get(row, path):
                problems.append(
                    f"{row['scenario']}: {path} is {_get(row, path)!r} "
                    "(must be 0 on every run)"
                )
    if committed.get("schema") != gate.schema:
        problems.append(
            f"committed document has schema {committed.get('schema')!r}; "
            f"this gate checks {gate.schema!r} documents"
        )
        return problems, 0
    references = {row["scenario"]: row for row in committed.get("scenarios", [])}
    compared = 0
    for row in rows:
        reference = references.get(row["scenario"])
        if reference is not None:
            compared += 1
            problems.extend(
                _row_problems(gate, row, reference, tolerance, latency_tolerance)
            )
    if not compared:
        problems.append(
            "0 rows compared: the committed document names none of the "
            f"{len(rows)} fresh scenario(s)"
        )
    return problems, compared


def _row_problems(
    gate: GateSpec,
    row: Mapping[str, Any],
    reference: Mapping[str, Any],
    tolerance: float,
    latency_tolerance: float,
) -> List[str]:
    name = row["scenario"]
    problems: List[str] = []
    one_sided = set()
    for path in gate.exact:
        # A block present on one side only (a ``recovery`` section that
        # appeared or went away) is one problem, not one per field inside it.
        block = path.rpartition(".")[0]
        if block and (_get(row, block) is None) != (_get(reference, block) is None):
            if block not in one_sided:
                one_sided.add(block)
                change = "appeared" if _get(reference, block) is None else "disappeared"
                problems.append(
                    f"{name}: {block} section {change} relative to the "
                    "committed document"
                )
        elif _get(row, path) != _get(reference, path):
            problems.append(
                f"{name}: {path} {_get(row, path)!r} != committed "
                f"{_get(reference, path)!r} (run no longer deterministic?)"
            )
    limits = [(path, "below", 1.0 - tolerance) for path in gate.floors]
    limits += [(path, "above", 1.0 + latency_tolerance) for path in gate.ceilings]
    for path, side, factor in limits:
        current, committed = _get(row, path), _get(reference, path)
        if current is None or not committed:
            continue
        limit = committed * factor
        if current < limit if side == "below" else current > limit:
            problems.append(
                f"{name}: {path} {current:,.10g} is {side} {limit:,.10g} "
                f"(committed {committed:,.10g} {factor - 1.0:+.0%} tolerance)"
            )
    return problems


def deterministic(document: Document) -> Document:
    """The document minus every host- or run-path-dependent field.

    Two runs of the same matrix — any machine, any worker count, single-shot
    or merged from shards — must agree byte-for-byte on
    ``canonical_json(deterministic(doc))``.  Host-dependent measurements live
    under each row's ``timing`` key and the top-level ``run`` key;
    ``generated_by`` is provenance (it differs between single-shot and
    merged-shard documents), so it is stripped with them.
    """
    stripped = {
        key: value
        for key, value in document.items()
        if key not in ("run", "generated_by")
    }
    stripped["scenarios"] = [
        {key: value for key, value in row.items() if key != "timing"}
        for row in document["scenarios"]
    ]
    return stripped


def canonical_json(document: Document) -> str:
    """Canonical serialisation: what is written, and what byte-identity means."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def load(path: str) -> Document:
    """Read a benchmark document."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write(document: Document, path: str) -> None:
    """Write a benchmark document to ``path`` in canonical form."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document))
