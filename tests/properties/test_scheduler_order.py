"""The engine against a model that is just ``sorted`` on ``(time, sequence)``.

The engine keeps single pushes in a heap, its one bulk load as a sorted run
beside it and one constant-latency network's deliveries in a FIFO lane, as
ready-to-fire three-argument calls; a second constant-latency network on
the same engine, with another delay, pushes ``_deliver`` entries to the
heap.  Whatever mix of these a program makes — from the top level or
from inside callbacks, in time order or not (a bulk load itself comes in
time order), with equal-time ties between them — and however the drain is
cut into ``run(max_events=k)`` and ``run(until=t)`` slices, the events must
fire in exactly the order one flat list sorted by ``(time, sequence)`` would
give, ``pending_events`` must be exact after every slice, and the clock must
move as it always has: never backwards, and to ``until`` when a horizon is
reached.  An engine holds one bulk load at a time: a load made while an
earlier one has entries left is refused before it draws a sequence number,
and queues nothing.
"""

from __future__ import annotations

from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SchedulingError
from repro.sim.engine import SimulationEngine
from repro.sim.faults import FaultInjectingNetwork
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder

# A quarter lattice with few points: equal-time ties are the common case.
DELAYS = st.integers(0, 12).map(lambda quarters: quarters / 4)
# The two networks' constant delays: the first claims the lane, the second
# (a different delay, so its deliveries interleave out of send order with
# the first's) uses the heap.
NETWORK_DELAYS = (0.75, 1.5)


def scripts(depth: int):
    """What an event does when it fires: a tuple of actions.

    ``("single", dt, script)`` pushes one event ``dt`` after now,
    ``("bulk", [(dt, script), ...])`` bulk-loads several (sorted by time
    first, as every load is: a ``Workload`` sorts itself), ``("send",
    which, script)`` sends one message through network ``which`` (delivered
    :data:`NETWORK_DELAYS` ``[which]`` after now).  ``script`` is what the
    new event does in its turn.
    """
    if depth == 0:
        return st.just(())
    child = scripts(depth - 1)
    single = st.tuples(st.just("single"), DELAYS, child)
    bulk = st.tuples(st.just("bulk"), st.lists(st.tuples(DELAYS, child), max_size=6))
    send = st.tuples(st.just("send"), st.integers(0, 1), child)
    return st.lists(st.one_of(single, bulk, send), max_size=3).map(tuple)


SCHEDULING = st.one_of(
    st.tuples(st.just("single"), DELAYS, scripts(2)),
    st.tuples(st.just("bulk"), st.lists(st.tuples(DELAYS, scripts(2)), max_size=8)),
    st.tuples(st.just("send"), st.integers(0, 1), scripts(2)),
)
SLICES = st.one_of(
    st.tuples(st.just("max_events"), st.integers(0, 7)),
    # Relative to now; a horizon in the past must fire nothing and move nothing.
    st.tuples(st.just("until"), st.integers(-2, 12).map(lambda quarters: quarters / 4)),
    st.tuples(st.just("run"), st.none()),
)
PROGRAMS = st.lists(st.one_of(SCHEDULING, SLICES), max_size=14)


class Harness:
    """One engine and the flat list it is checked against."""

    def __init__(self) -> None:
        self.engine = SimulationEngine()
        self.networks = []
        for delay in NETWORK_DELAYS:
            network = Network(self.engine, latency=ConstantLatency(delay))
            network.register(1, lambda _sender, _message: None)
            network.register(2, lambda _sender, entry: self.fire(entry))
            self.networks.append(network)
        lane_owner, other = self.networks
        assert lane_owner._enqueue == self.engine._lane.append
        assert other._enqueue == self.engine._push
        self.model = []  # (time, sequence, script) of everything not yet fired
        self.loaded = set()  # sequences of the bulk-loaded entries not yet fired
        self.sequence = 0
        self.fired = 0
        self.clock = 0.0  # time of the last event fired

    def _expect(self, time: float, script) -> tuple:
        self.sequence += 1
        entry = (time, self.sequence, script)
        self.model.append(entry)
        return entry

    def perform(self, actions) -> None:
        engine = self.engine
        now = engine.now
        for action in actions:
            if action[0] == "send":
                _, which, script = action
                delivery = now + NETWORK_DELAYS[which]
                lane = engine._lane
                queued = len(lane)
                network = self.networks[which]
                network.send(1, 2, self._expect(delivery, script))
                if which == 0:
                    # The lane owner queues the call itself: fn(target,
                    # sender, message), fn resolved for node 2 at send.
                    time, sequence, fn, target, sender, message = lane[-1]
                    assert (time, sequence, message) == (delivery, self.sequence, self.model[-1])
                    assert target is network._receivers[2] and sender == 1
                    assert callable(fn)
                else:
                    assert len(lane) == queued
            elif action[0] == "single":
                _, delay, script = action
                engine.schedule_lite(now + delay, self.fire, self._expect(now + delay, script))
            elif self.loaded:
                # An earlier load is live: refused before it draws anything.
                _, items = action
                pending = engine.pending_events
                with pytest.raises(SchedulingError, match="still queued"):
                    engine.schedule_lite_bulk(
                        [now + delay for delay, _ in items], self.fire, items, len(items)
                    )
                assert engine.pending_events == pending
            else:
                _, items = action
                items = sorted(items, key=lambda item: item[0])
                entries = [self._expect(now + delay, script) for delay, script in items]
                self.loaded.update(entry[1] for entry in entries)
                loaded = engine.schedule_lite_bulk(
                    map(itemgetter(0), entries), self.fire, entries, len(entries)
                )
                assert loaded == len(items)
        assert engine._sequence == self.sequence

    def fire(self, entry) -> None:
        assert entry is sorted(self.model, key=lambda e: e[:2])[0]
        self.model.remove(entry)
        self.loaded.discard(entry[1])
        assert self.engine.now == entry[0] >= self.clock
        self.clock = entry[0]
        self.fired += 1
        self.perform(entry[2])

    def drain(self, kind: str, argument) -> None:
        engine = self.engine
        now, fired = engine.now, self.fired
        if kind == "max_events":
            count = engine.run(max_events=argument)
            assert count == argument or not self.model
        elif kind == "until":
            horizon = now + argument
            count = engine.run(until=horizon)
            assert all(time > horizon for time, _, _ in self.model)
            assert engine.now == max(now, horizon)
        else:
            count = engine.run()
            assert not self.model
        assert count == self.fired - fired
        assert engine.pending_events == len(self.model)
        assert engine.now >= now
        if kind != "until" and count == 0:
            assert engine.now == now


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_any_mix_of_pushes_loads_and_slices_fires_in_sorted_order(program):
    harness = Harness()
    for step in program:
        if step[0] in ("single", "bulk", "send"):
            harness.perform([step])
        else:
            harness.drain(*step)
    while harness.model:
        harness.drain("run", None)
    assert harness.fired == harness.sequence
    assert harness.engine.pending_events == 0
    assert harness.engine.processed_events == harness.fired


def test_a_second_live_load_is_refused_before_it_draws():
    engine = SimulationEngine()
    fired = []
    assert engine.schedule_lite_bulk([1.0, 2.0, 3.0], fired.append, "abc", 3) == 3
    engine.run(max_events=1)
    # "b" and "c" are still queued: a second load queues nothing and draws
    # no sequence number, not even an empty one.
    for times, payloads in (([2.0, 4.0], "xy"), ([], "")):
        with pytest.raises(SchedulingError, match="still queued"):
            engine.schedule_lite_bulk(times, fired.append, payloads, len(times))
        assert (engine._sequence, engine.pending_events) == (3, 2)
    engine.schedule_lite(2.0, fired.append, "single")
    engine.run()
    assert fired == ["a", "b", "single", "c"]
    # Spent, the load makes room for the next one, which draws on from 5.
    assert engine.schedule_lite_bulk([4.0], fired.append, "d", 1) == 1
    assert engine._run == [(4.0, 5, fired.append, "d")]
    engine.run()
    assert fired[-1] == "d"


WATCHING_NETWORKS = {
    "uniform": lambda engine: Network(engine, latency=UniformLatency(0.5, 2.0)),
    "traced": lambda engine: Network(engine, trace=TraceRecorder()),
    "fault": FaultInjectingNetwork,
}


@pytest.mark.parametrize("kind", list(WATCHING_NETWORKS))
def test_a_network_that_watches_deliveries_never_touches_the_lane(kind):
    engine = SimulationEngine()
    watching = WATCHING_NETWORKS[kind](engine)
    fired = []
    for node in (1, 2):
        watching.register(node, lambda sender, message: fired.append(message))
    assert watching._enqueue == engine._push
    for index in range(20):
        watching.send(1 + index % 2, 2 - index % 2, index)
    lane = engine._lane
    assert len(lane) == 0 and engine.pending_events == 20
    assert all(entry[2] == watching._deliver for entry in engine._heap)
    while engine.run(max_events=1):
        assert len(lane) == 0
    assert sorted(fired) == list(range(20))
    # The lane is still unclaimed: the first constant-latency network gets it.
    assert Network(engine)._enqueue == lane.append
