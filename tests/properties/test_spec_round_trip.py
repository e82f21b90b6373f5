"""Every spec class round-trips through its JSON form, whatever its fields hold.

A spec's JSON form is its dataclass fields, written and read by one codec
(``repro.spec_base``).  The property: for any instance a constructor accepts —
so ``__post_init__`` holds — ``from_dict(to_dict(s)) == s`` and
``from_json(canonical_json(s)) == s``, and the canonical text is a fixed
point.  Instances are drawn through the constructors, never from dicts, so
the codec is not also the generator.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import spec as spec_module, spec_base
from repro.baselines import registry
from repro.sim.schedulers import SCHEDULER_MODES
from repro.spec import (
    LATENCY_KINDS,
    SOCKET_KINDS,
    TOKEN_HOLDER,
    TOPOLOGY_KINDS,
    WORKLOAD_TIERS,
    CrashSpec,
    ExperimentSpec,
    FaultSpec,
    LatencySpec,
    ObsSpec,
    PartitionSpec,
    RecoverySpec,
    RuntimeFaultSpec,
    RuntimeSpec,
    ShardCrashSpec,
    TopologySpec,
    WorkloadSpec,
)

seeds = st.integers(min_value=0, max_value=2**63)
counts = st.integers(min_value=1, max_value=10**7)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
positive = times.filter(lambda value: value > 0)
#: A gap that still moves a time of up to 1e6 when added to it.
gaps = st.floats(min_value=1e-3, max_value=1e6)


def maybe(strategy):
    return st.none() | strategy


@st.composite
def topologies(draw, min_n=1):
    return TopologySpec(
        kind=draw(st.sampled_from(TOPOLOGY_KINDS)),
        n=draw(st.integers(min_value=min_n, max_value=10**7)),
        seed=draw(seeds),
    )


@st.composite
def workloads(draw):
    tier = draw(st.sampled_from(WORKLOAD_TIERS))
    heavy = tier == "heavy"
    return WorkloadSpec(
        tier=tier,
        rounds=draw(maybe(counts)) if heavy else None,
        total_requests=None if heavy else draw(maybe(counts)),
    )


@st.composite
def crashes(draw):
    time = draw(times)
    return CrashSpec(
        node=draw(st.integers(min_value=0, max_value=10**6) | st.just(TOKEN_HOLDER)),
        time=time,
        restart=draw(maybe(gaps.map(lambda gap: time + gap))),
    )


@st.composite
def partitions(draw):
    a = draw(st.integers(min_value=0, max_value=10**6))
    start = draw(times)
    return PartitionSpec(
        a=a,
        b=draw(st.integers(min_value=0, max_value=10**6).filter(lambda b: b != a)),
        start=start,
        heal=draw(maybe(gaps.map(lambda gap: start + gap))),
        symmetric=draw(st.booleans()),
    )


recoveries = st.builds(RecoverySpec, delay=positive, check_interval=positive)
drop_rates = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def faults(draw, recovery=True):
    return FaultSpec(
        drop_rate=draw(drop_rates),
        drop_privilege=draw(st.integers(min_value=0, max_value=100)),
        drop_request=draw(st.integers(min_value=0, max_value=100)),
        crashes=tuple(draw(st.lists(crashes(), max_size=3))),
        partitions=tuple(draw(st.lists(partitions(), max_size=3))),
        recovery=draw(maybe(recoveries)) if recovery else None,
        worker_crash=draw(st.booleans()),
        seed=draw(seeds),
    )


@st.composite
def uniform_bounds(draw):
    """``(low, high)`` with ``0 < low <= high``: a uniform spec refuses others."""
    low = draw(positive)
    return low, low + draw(times)


latencies = st.builds(
    lambda bounds, **fields: LatencySpec(low=bounds[0], high=bounds[1], **fields),
    uniform_bounds(),
    kind=st.sampled_from(LATENCY_KINDS),
    value=positive,
    mean=positive,
    seed=seeds,
)
observers = st.builds(
    ObsSpec, enabled=st.booleans(), sample_every=st.integers(min_value=1, max_value=10**4)
)


@st.composite
def experiments(draw):
    algorithm = draw(st.sampled_from(registry.names()))
    return ExperimentSpec(
        algorithm=algorithm,
        topology=draw(topologies()),
        workload=draw(workloads()),
        latency=draw(maybe(latencies)),
        scheduler=draw(st.sampled_from(SCHEDULER_MODES)),
        seed=draw(seeds),
        collect_metrics=draw(st.booleans()),
        record_trace=draw(st.booleans()),
        faults=draw(maybe(faults(recovery=algorithm == "dag"))),
        obs=draw(maybe(observers)),
    )


shard_crashes = st.builds(
    ShardCrashSpec, shard=st.integers(min_value=0, max_value=7), at=positive
)
runtime_faults = st.builds(
    RuntimeFaultSpec,
    crashes=st.lists(shard_crashes, max_size=3).map(tuple),
    drop_rate=drop_rates,
    seed=seeds,
)


@st.composite
def runtimes(draw):
    fault_section = draw(maybe(runtime_faults))
    targeted = [crash.shard for crash in fault_section.crashes] if fault_section else []
    heartbeat = draw(positive)
    return RuntimeSpec(
        topology=draw(topologies(min_n=2)),
        shards=draw(st.integers(min_value=max(targeted, default=0) + 1, max_value=64)),
        socket=draw(st.sampled_from(SOCKET_KINDS)),
        faults=fault_section,
        heartbeat_interval=heartbeat,
        miss_window=heartbeat + draw(gaps),
        obs=draw(maybe(observers)),
    )


STRATEGIES = {
    TopologySpec: topologies(),
    WorkloadSpec: workloads(),
    CrashSpec: crashes(),
    PartitionSpec: partitions(),
    RecoverySpec: recoveries,
    FaultSpec: faults(),
    LatencySpec: latencies,
    ObsSpec: observers,
    ExperimentSpec: experiments(),
    ShardCrashSpec: shard_crashes,
    RuntimeFaultSpec: runtime_faults,
    RuntimeSpec: runtimes(),
}


def test_every_spec_class_has_a_strategy():
    modules = (spec_module, spec_base)
    declared = {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value)
        and value.__module__ in {module.__name__ for module in modules}
    }
    assert declared == set(STRATEGIES)


@pytest.mark.parametrize("cls", list(STRATEGIES), ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spec_round_trips_through_dict_and_json(cls, data):
    spec = data.draw(STRATEGIES[cls])
    assert cls.from_dict(spec.to_dict()) == spec
    text = spec.canonical_json()
    assert cls.from_json(text) == spec
    assert cls.from_json(text).canonical_json() == text
