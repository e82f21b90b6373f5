"""Workload generation and the experiment driver.

The paper's Chapter 6 numbers are parameterised by *who* requests the critical
section, *when*, and *where the token happens to be*.  This package expresses
those choices as data:

* :class:`~repro.workload.requests.CSRequest` / :class:`~repro.workload
  .requests.Workload` — a schedule of critical-section requests, stored as
  columns of arrival times, nodes and durations;
* :class:`~repro.workload.generator.WorkloadGenerator` — Poisson, uniform,
  bursty and hot-spot arrival patterns, all seeded and reproducible;
* :class:`~repro.workload.driver.ExperimentDriver` — replays one workload
  against one algorithm on one topology and returns a
  :class:`~repro.workload.driver.ExperimentResult`;
* :mod:`~repro.workload.scenarios` — the canned scenarios used by the
  benchmark suite (worst-case placement, uniform single requests, heavy
  demand, ...).
"""

from repro.workload.driver import ExperimentDriver, ExperimentResult, run_experiment
from repro.workload.generator import WorkloadGenerator
from repro.workload.requests import CSRequest, Workload

__all__ = [
    "CSRequest",
    "Workload",
    "WorkloadGenerator",
    "ExperimentDriver",
    "ExperimentResult",
    "run_experiment",
]
