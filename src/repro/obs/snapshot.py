"""Point-in-time observability documents and fairness summaries.

The fairness metrics are the client-visible numbers the ROADMAP lists as the
runtime's missing observability: *per-session latency spread* (how unequally
the service treats its sessions — p50/p99/max over each session's mean
acquire latency) and *queue depth* (how many requesters are stacked behind a
key's token, deduced by the implicit-queue inspector exactly as the paper
deduces it from node states).

Documents are serialized through the sweep harness's ``canonical_json``
helper — dict-order nondeterminism must never leak into committed or
compared artifacts.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from repro.benchdoc import canonical_json

OBS_SNAPSHOT_SCHEMA = "obs-snapshot/v1"


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


def fairness_summary(
    session_latencies: Mapping[Any, Sequence[float]],
    *,
    max_queue_depth: Optional[int] = None,
) -> Dict[str, Any]:
    """The per-session fairness block for a lockbench row (milliseconds).

    ``session_latencies`` maps a session id to that session's acquire
    latencies in **seconds**; the summary is the spread of per-session mean
    latency.  A fair service keeps p99 close to p50; a starving one shows a
    long tail even when the aggregate percentiles look healthy.
    """
    means = sorted(
        sum(values) / len(values)
        for values in session_latencies.values()
        if len(values) > 0
    )
    block: Dict[str, Any] = {
        "sessions": len(means),
        "session_p50_ms": round(quantile(means, 0.50) * 1000, 3),
        "session_p99_ms": round(quantile(means, 0.99) * 1000, 3),
        "session_max_ms": round(means[-1] * 1000, 3) if means else 0.0,
    }
    if max_queue_depth is not None:
        block["max_queue_depth"] = int(max_queue_depth)
    return block


def merge_registry_snapshots(
    snapshots: Mapping[str, Mapping[str, Any]],
) -> Dict[str, Any]:
    """Combine several registry snapshots into one, prefixing metric names.

    ``snapshots`` maps a prefix (``"shard0"``, ``"client"``) to that
    registry's :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.  The
    merged view is what a multi-process producer (the sharded lock service)
    publishes as a single document.
    """
    merged: Dict[str, Any] = {}
    enabled = False
    sample_every = 1
    for prefix in sorted(snapshots):
        snap = snapshots[prefix]
        enabled = enabled or bool(snap.get("enabled"))
        sample_every = max(sample_every, int(snap.get("sample_every", 1)))
        for name, data in (snap.get("metrics") or {}).items():
            merged[f"{prefix}.{name}"] = data
    return {
        "enabled": enabled,
        "sample_every": sample_every,
        "metrics": {name: merged[name] for name in sorted(merged)},
    }


def snapshot_document(
    *,
    source: str,
    registry_snapshot: Mapping[str, Any],
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one obs snapshot document (schema ``obs-snapshot/v1``).

    ``source`` names the producer (``"sim"``, ``"runtime"``, a scenario
    name); ``extra`` carries producer-specific sections (per-shard stats,
    fairness blocks).  Keys are sorted on serialization, not here — the
    canonical form is the contract.
    """
    document: Dict[str, Any] = {
        "schema": OBS_SNAPSHOT_SCHEMA,
        "source": source,
        "registry": dict(registry_snapshot),
    }
    if extra:
        for key in sorted(extra):
            document[key] = extra[key]
    return document


def write_snapshot(document: Dict[str, Any], path: str) -> None:
    """Write an obs document in canonical form (byte-stable artifacts)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(canonical_json(document))


__all__ = [
    "OBS_SNAPSHOT_SCHEMA",
    "fairness_summary",
    "merge_registry_snapshots",
    "quantile",
    "snapshot_document",
    "write_snapshot",
]
