"""How many Python calls the message path and the schedule build make,
counted, not timed.

Each replay (and each build) runs under ``sys.setprofile`` and counts the
``call`` events of every function defined under ``src/repro`` — the library's
own frames, keyed ``<module path>:<function name>``.  Counting only those keeps the figures
identical on every CPython the suite runs on (3.9, 3.11 and 3.12): the
interpreter's own frames outside the package differ between versions, the
package's do not — except list, dict and set comprehensions, which 3.12
inlines into their function (PEP 709), so they are not counted.  No clock
is read, so the counts are exact and a regression that adds one frame per
message fails on any machine.

The pins are where the replay's Python time goes, layer by layer: on the
lane (constant latency, nothing watching), one ``send`` per message and no
forwarding frame between the protocol handler and the network; one
``_arrive`` per arrival, a backlogged request re-issued inside ``_release``
with no frame of its own; and no request object anywhere: a schedule is
built as columns, so an arrival process's draws are its only frames per
request and a heavy schedule costs the same few calls at any size.  The
replay pins include the collector pause's ``__enter__`` and ``__exit__``,
once each (the network's enter hook is one attribute, set with the arrivals
and cleared on the way out of ``run``, no frame), ``now`` once (the result's
``finished_at``: the engine checks the first arrival against its clock when
the arrivals load), the workload's ``arrivals`` and its columns' ``draw``
once each, and ``__len__`` twice (the workload's and its columns').  The
engine keeps its event queue itself, so a replay's engine frames are
``schedule_lite_bulk``, ``run`` (the drain loop) and ``pending_events`` once
each and ``_refill`` twice (the load's one chunk, then the empty refill that
finds it spent): the ``sim/schedulers.py`` frames ``push_bulk``, ``drain``
and ``__len__`` (once per replay each, none per event) went with the
scheduler object, and ``_refill`` moved to ``sim/engine.py``.  A change
that moves a count re-pins it here and records in ``CHANGES.md`` the
before/after measurement that justifies the move; a failure prints the
per-function table, pinned against now, largest move first.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

import repro
from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.workload.driver import ExperimentDriver
from repro.workload.requests import CSRequest

from ..conftest import forced_node_backend

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
# Frames only CPython < 3.12 gives a comprehension.
_INLINED = {"<listcomp>", "<dictcomp>", "<setcomp>"}

#: name -> (topology kind, n, workload); replayed at seed 0, metrics off.
REPLAYS = {
    "line50-light": ("line", 50, WorkloadSpec(tier="light")),
    "star50-heavy": ("star", 50, WorkloadSpec(tier="heavy")),
}

#: (replay, node backend) -> (events, messages, calls per function).
PINNED = {
    ("line50-light", "object"): (1208, 1008, {
        "baselines/base.py:run": 1,
        "core/messages.py:__init__": 911,
        "core/node.py:_enter_critical_section": 100,
        "core/node.py:_handle_privilege": 97,
        "core/node.py:_handle_request": 911,
        "core/node.py:release_cs": 100,
        "core/node.py:request_cs": 100,
        "sim/engine.py:now": 1,
        "sim/engine.py:_refill": 2,
        "sim/engine.py:pending_events": 1,
        "sim/engine.py:run": 1,
        "sim/engine.py:schedule_lite_bulk": 1,
        "sim/network.py:messages_sent": 2,
        "sim/network.py:send": 1008,
        "topology/base.py:describe": 1,
        "workload/driver.py:_arrive": 100,
        "workload/driver.py:_completion_state": 1,
        "workload/driver.py:_handle_enter": 100,
        "workload/driver.py:_load_arrivals": 1,
        "workload/driver.py:_release": 100,
        "workload/driver.py:_replay": 1,
        "workload/driver.py:_verify_completion": 1,
        "workload/driver.py:run": 1,
        "workload/requests.py:__enter__": 1,
        "workload/requests.py:__exit__": 1,
        "workload/requests.py:__len__": 2,
        "workload/requests.py:arrivals": 1,
        "workload/requests.py:draw": 1,
    }),
    ("line50-light", "compact"): (1208, 1008, {
        "baselines/base.py:run": 1,
        "core/compact_state.py:_enter_critical_section": 100,
        "core/compact_state.py:_handle_privilege": 97,
        "core/compact_state.py:_handle_request": 911,
        "core/compact_state.py:busy_nodes": 1,
        "core/compact_state.py:release_cs": 100,
        "core/compact_state.py:request_cs": 100,
        "core/messages.py:__init__": 911,
        "sim/engine.py:now": 1,
        "sim/engine.py:_refill": 2,
        "sim/engine.py:pending_events": 1,
        "sim/engine.py:run": 1,
        "sim/engine.py:schedule_lite_bulk": 1,
        "sim/network.py:messages_sent": 2,
        "sim/network.py:send": 1008,
        "topology/base.py:describe": 1,
        "workload/driver.py:_arrive": 100,
        "workload/driver.py:_completion_state": 1,
        "workload/driver.py:_handle_enter": 100,
        "workload/driver.py:_load_arrivals": 1,
        "workload/driver.py:_release": 100,
        "workload/driver.py:_replay": 1,
        "workload/driver.py:_verify_completion": 1,
        "workload/driver.py:run": 1,
        "workload/requests.py:__enter__": 1,
        "workload/requests.py:__exit__": 1,
        "workload/requests.py:__len__": 2,
        "workload/requests.py:arrivals": 1,
        "workload/requests.py:draw": 1,
    }),
    ("star50-heavy", "object"): (2477, 1477, {
        "baselines/base.py:run": 1,
        "core/messages.py:__init__": 979,
        "core/node.py:_enter_critical_section": 500,
        "core/node.py:_handle_privilege": 498,
        "core/node.py:_handle_request": 979,
        "core/node.py:release_cs": 500,
        "core/node.py:request_cs": 500,
        "sim/engine.py:now": 1,
        "sim/engine.py:_refill": 2,
        "sim/engine.py:pending_events": 1,
        "sim/engine.py:run": 1,
        "sim/engine.py:schedule_lite_bulk": 1,
        "sim/network.py:messages_sent": 2,
        "sim/network.py:send": 1477,
        "topology/base.py:describe": 1,
        "workload/driver.py:_arrive": 500,
        "workload/driver.py:_completion_state": 1,
        "workload/driver.py:_handle_enter": 500,
        "workload/driver.py:_load_arrivals": 1,
        "workload/driver.py:_release": 500,
        "workload/driver.py:_replay": 1,
        "workload/driver.py:_verify_completion": 1,
        "workload/driver.py:run": 1,
        "workload/requests.py:__enter__": 1,
        "workload/requests.py:__exit__": 1,
        "workload/requests.py:__len__": 2,
        "workload/requests.py:arrivals": 1,
        "workload/requests.py:draw": 1,
    }),
    ("star50-heavy", "compact"): (2477, 1477, {
        "baselines/base.py:run": 1,
        "core/compact_state.py:_enter_critical_section": 500,
        "core/compact_state.py:_handle_privilege": 498,
        "core/compact_state.py:_handle_request": 979,
        "core/compact_state.py:busy_nodes": 1,
        "core/compact_state.py:release_cs": 500,
        "core/compact_state.py:request_cs": 500,
        "core/messages.py:__init__": 979,
        "sim/engine.py:now": 1,
        "sim/engine.py:_refill": 2,
        "sim/engine.py:pending_events": 1,
        "sim/engine.py:run": 1,
        "sim/engine.py:schedule_lite_bulk": 1,
        "sim/network.py:messages_sent": 2,
        "sim/network.py:send": 1477,
        "topology/base.py:describe": 1,
        "workload/driver.py:_arrive": 500,
        "workload/driver.py:_completion_state": 1,
        "workload/driver.py:_handle_enter": 500,
        "workload/driver.py:_load_arrivals": 1,
        "workload/driver.py:_release": 500,
        "workload/driver.py:_replay": 1,
        "workload/driver.py:_verify_completion": 1,
        "workload/driver.py:run": 1,
        "workload/requests.py:__enter__": 1,
        "workload/requests.py:__exit__": 1,
        "workload/requests.py:__len__": 2,
        "workload/requests.py:arrivals": 1,
        "workload/requests.py:draw": 1,
    }),
}


def profiled(call):
    """``call()`` under the profile hook: its result and the package's calls."""
    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_PACKAGE) and code.co_name not in _INLINED:
                module = code.co_filename[len(_PACKAGE):].replace(os.sep, "/")
                calls[f"{module}:{code.co_name}"] += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, dict(calls)


def count_calls(replay, node_backend):
    """Replay ``replay`` on ``node_backend``; count the package's calls."""
    kind, n, workload = REPLAYS[replay]
    spec = ExperimentSpec(
        algorithm="dag",
        topology=TopologySpec(kind=kind, n=n),
        workload=workload,
        seed=0,
        collect_metrics=False,
    )
    topology = spec.topology.build()
    with forced_node_backend(node_backend):
        system = spec.build_system(topology)
    assert system.node_backend == node_backend
    driver = ExperimentDriver(system, spec.workload.build(topology, seed=0))
    _result, calls = profiled(driver.run)
    return system.engine.processed_events, system.network.messages_sent, calls


def moved_table(pinned, now):
    """Every function whose count moved, pinned vs now, largest move first."""
    moved = [
        (now.get(name, 0) - pinned.get(name, 0), name)
        for name in set(pinned) | set(now)
        if now.get(name, 0) != pinned.get(name, 0)
    ]
    moved.sort(key=lambda row: (-abs(row[0]), row[1]))
    width = max([len(name) for _delta, name in moved] + [len("function")])
    lines = [f"{'function':<{width}} {'pinned':>8} {'now':>8} {'delta':>8}"]
    for delta, name in moved:
        lines.append(
            f"{name:<{width}} {pinned.get(name, 0):>8} {now.get(name, 0):>8} {delta:>+8}"
        )
    return "\n".join(lines)


@pytest.mark.parametrize("node_backend", ["object", "compact"])
@pytest.mark.parametrize("replay", list(REPLAYS))
def test_the_message_path_makes_its_pinned_calls(replay, node_backend):
    events, messages, calls = count_calls(replay, node_backend)
    pinned_events, pinned_messages, pinned_calls = PINNED[replay, node_backend]
    assert (events, messages) == (pinned_events, pinned_messages)
    if calls != pinned_calls:
        pytest.fail(
            f"{replay} on the {node_backend} backend: calls per function moved "
            f"({sum(pinned_calls.values())} pinned, {sum(calls.values())} now)\n"
            + moved_table(pinned_calls, calls),
            pytrace=False,
        )
    # One send per message, whoever sends it: no process-level forwarding frame.
    assert sum(count for name, count in calls.items() if name.endswith(":send")) == messages


# --------------------------------------------------------------------------- #
# building a schedule
# --------------------------------------------------------------------------- #
#: name -> (topology kind, n, workload); built at seed 0.
BUILDS = {
    "star50-heavy": ("star", 50, WorkloadSpec(tier="heavy", rounds=4)),
    "line50-light": ("line", 50, WorkloadSpec(tier="light")),
}

#: Calls per function of one ``WorkloadSpec.build``.  Heavy: one
#: ``HeavyRounds`` value (the ``requests.py:__init__``), the same calls at
#: any size.  Light: a Poisson draw is two frames per request, the RNG's,
#: appended to the time and node columns (one ``Columns.__init__``).
BUILD_PINNED = {
    "star50-heavy": {
        "sim/rng.py:__init__": 1,
        "sim/rng.py:_derive": 1,
        "spec.py:build": 1,
        "workload/generator.py:__init__": 1,
        "workload/generator.py:heavy_demand": 1,
        "workload/requests.py:__init__": 1,
        "workload/requests.py:of": 1,
    },
    "line50-light": {
        "sim/rng.py:__init__": 2,
        "sim/rng.py:_derive": 2,
        "sim/rng.py:child": 1,
        "sim/rng.py:choice": 100,
        "sim/rng.py:exponential": 100,
        "spec.py:build": 1,
        "workload/generator.py:__init__": 1,
        "workload/generator.py:_check_count": 1,
        "workload/generator.py:_check_mean": 1,
        "workload/generator.py:poisson": 1,
        "workload/requests.py:__init__": 1,
        "workload/requests.py:of": 1,
    },
}


def count_build_calls(build):
    kind, n, workload = BUILDS[build]
    topology = TopologySpec(kind=kind, n=n).build()
    return profiled(lambda: workload.build(topology, seed=0))


@pytest.mark.parametrize("build", list(BUILDS))
def test_building_a_schedule_makes_its_pinned_calls(build, monkeypatch):
    made = []
    real_init = CSRequest.__init__

    def counting_init(self, *args):
        made.append(args)
        real_init(self, *args)

    monkeypatch.setattr(CSRequest, "__init__", counting_init)
    schedule, calls = count_build_calls(build)
    if calls != BUILD_PINNED[build]:
        pytest.fail(
            f"building {build}: calls per function moved\n"
            + moved_table(BUILD_PINNED[build], calls),
            pytrace=False,
        )
    assert made == [] and len(schedule) > 0


def test_a_heavy_build_makes_the_same_calls_at_any_size():
    kind, n, workload = BUILDS["star50-heavy"]
    topology = TopologySpec(kind=kind, n=n).build()
    larger = WorkloadSpec(tier="heavy", rounds=100 * workload.rounds)
    schedule, calls = profiled(lambda: larger.build(topology, seed=0))
    assert len(schedule) == 50 * larger.rounds
    assert calls == BUILD_PINNED["star50-heavy"]
