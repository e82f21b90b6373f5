#!/usr/bin/env python3
"""The repository's one benchmark: simulator and lock service, six workloads.

Two ways in:

* ``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as its last line, one JSON
  object ``{correct, attempted, failed, metrics}`` — every end-to-end metric
  with ``--trace 0`` (tracing and ``repro.obs`` off), every per-layer metric
  with ``--trace 1``.  This is the form ``BENCHMARK.json``'s ``command`` names.
* ``python3 perf/run.py [--seed N] [--sets K] [--seed-step D] [--quick]`` runs
  all six, each in its own fresh child process, one after another, untraced
  then traced (``--trace 0|1`` keeps one of the two).  ``--sets K`` repeats
  that K times and reports how far the sets disagree, exiting non-zero when
  two sets differ by more than a metric's bound or — on one seed — in an
  exact count.

Metric names, units and bounds live in ``BENCHMARK.json`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

#: Per-layer counts that a run on the same seed must repeat bit-for-bit.
EXACT_COUNTS = (
    "workload.requests", "engine.events", "network.messages", "core.entries",
    "core.msgs_per_entry", "codec.frames_per_op", "codec.bytes_per_op",
    "tree.msgs_per_acquire",
)


def _hygiene(seed: int) -> Dict[str, Any]:
    cores = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > 0.5 * cores:
        print(f"WARNING: 1-min load average {load:.2f} exceeds half of {cores} cores; "
              "timings below are suspect")
    return {"nproc": cores, "python": platform.python_version(), "loadavg_1m": load, "seed": seed}


def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Run one workload here and print the contract's final JSON line."""
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import simbench
    import svcbench
    from report import pin_to_one_cpu

    pin_to_one_cpu()
    OUT_DIR.mkdir(exist_ok=True)
    hygiene = _hygiene(args.seed)
    bench = simbench if args.workload in simbench.CELLS else svcbench
    started = time.perf_counter()
    try:
        if args.trace:
            trace_path = str(OUT_DIR / f"trace-{args.workload}.json")
            result = bench.run_traced(args.workload, args.seed, args.seconds, args.quick,
                                      trace_path)
            declared = contract["per_layer"]
        else:
            result = bench.run_end_to_end(args.workload, args.seed, args.seconds, args.quick)
            declared = contract["end_to_end"]
    finally:
        # ``LockServiceCluster.stop`` gives a shard ten seconds and then lets
        # go of it; no process started here may outlive this one.
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
    elapsed = time.perf_counter() - started

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    if args.quick:
        label += " QUICK (smoke length: NOT comparable with any other run)"
    print(f"== {label} ==")
    print("   " + "  ".join(f"{key}={value}" for key, value in sorted(hygiene.items())))
    for key, value in sorted(result.labels.items()):
        print(f"   {key}: {value}")
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name in result.metrics:
            value = result.metrics[name]
            count = result.samples.get(name)
            suffix = f"   (n={count})" if count else ""
            if name in result.raw:
                suffix += f"   [as clocked: {result.raw[name]:.6g}]"
            if name in bench.MEANING:
                suffix += f"   = {bench.MEANING[name]}"
            print(f"   {name:<32} {value:>16.6g} {unit}{suffix}")
        elif args.trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            result.problems.append(f"end-to-end metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": unit}
    if "machine_slowdown" in result.raw:
        print(f"   machine_slowdown = {result.raw['machine_slowdown']:.3f} "
              "(reference loop against its nominal time; times above are divided by it)")
    for note in result.notes:
        print(f"   note: {note}")
    for problem in result.problems:
        print(f"   CHECK FAILED: {problem}")
    ratio = result.failed / max(1, result.attempted)
    print(f"   op_fail_ratio = {result.failed}/{result.attempted} = {ratio:g}; "
          f"whole run {elapsed:.1f} s")
    final = {
        "correct": not result.problems,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }
    document = dict(final, workload=args.workload, trace=args.trace, quick=args.quick,
                    hygiene=hygiene, labels=result.labels, samples=result.samples, raw=result.raw,
                    notes=result.notes, problems=result.problems)
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps(final))
    return 0 if final["correct"] and not result.failed else 1


def _child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> Dict[str, Any]:
    command = [sys.executable, str(PERF_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.rstrip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} trace={trace}: child exited {done.returncode}")
    return json.loads(lines[-1])


def _compare_sets(contract: Dict[str, Any], sets: List[Dict[str, Dict[str, float]]],
                  same_seed: bool) -> int:
    """Print min / median / max per end-to-end metric; count the disagreements."""
    disagreements = 0
    print(f"#### {len(sets)} sets: min / median / max, spread = (Q3-Q1)/median, "
          "gap = (max-min)/median against the metric's bound")
    for workload, first in sets[0].items():
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in first:
                continue
            column = [values[workload][name] for values in sets]
            middle = statistics.median(column)
            quartiles = statistics.quantiles(column, n=4)
            spread = (quartiles[2] - quartiles[0]) / middle
            gap = (max(column) - min(column)) / middle
            verdict = "ok"
            if gap > metric["bound"]:
                verdict = "DISAGREE"
                disagreements += 1
            print(f"   {workload:<20} {name:<12} {min(column):>12.5g} "
                  f"{middle:>12.5g} {max(column):>12.5g} {metric['unit']:<4} "
                  f"spread {spread:.3f}  gap {gap:.3f} / {metric['bound']}  {verdict}")
        if not same_seed:
            continue
        for name in EXACT_COUNTS:
            column = [values[workload][name] for values in sets if name in values[workload]]
            if len(set(column)) > 1:
                disagreements += 1
                print(f"   {workload:<20} {name}: exact count differs between sets: {column}")
    return disagreements


def run_all(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    workloads = [workload["name"] for workload in contract["workloads"]]
    traces = (0, 1) if args.trace is None else (args.trace,)
    # sets[i][workload][metric] -> value
    sets: List[Dict[str, Dict[str, float]]] = []
    correct = True
    for index in range(args.sets):
        seed = args.seed + index * args.seed_step
        print(f"#### set {index + 1}/{args.sets} (seed {seed})")
        values: Dict[str, Dict[str, float]] = {}
        for workload in workloads:
            values[workload] = {}
            for trace in traces:
                final = _child(workload, seed, args.seconds, trace, args.quick)
                correct = correct and final["correct"] and not final["failed"]
                values[workload].update(
                    {name: metric["value"] for name, metric in final["metrics"].items()}
                )
        sets.append(values)
    if args.quick:
        print("#### QUICK run: smoke only, numbers are not comparable with anything")
    disagreements = 0
    if args.sets > 1:
        disagreements = _compare_sets(contract, sets, same_seed=args.seed_step == 0)
    if not correct:
        print("#### FAILED: an output check failed or an operation failed")
    if disagreements:
        print(f"#### FAILED: {disagreements} metric(s) disagree between sets")
    return 0 if correct and not disagreements else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed part of one run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: 0 with "
                             "--workload, both without)")
    parser.add_argument("--sets", type=int, default=1, help="run the whole benchmark K times")
    parser.add_argument("--seed-step", type=int, default=0,
                        help="seed increment between sets (0, the default, repeats one seed)")
    parser.add_argument("--quick", action="store_true", help="smoke run at a tenth of the length")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    if args.seconds is None:
        args.seconds = contract["run_seconds"] / (10 if args.quick else 1)
    if args.workload is None:
        return run_all(args, contract)
    args.trace = args.trace or 0
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
