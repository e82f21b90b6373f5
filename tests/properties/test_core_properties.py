"""Property-based tests for the DAG algorithm's Chapter 5 guarantees.

Random workloads are replayed step by step with the invariant checker running
after every event, so a single counterexample found by hypothesis pinpoints a
concrete interleaving that breaks a safety or liveness property.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.baselines.dag_adapter import DagMutexProtocol, DagSystem
from repro.core.inspector import implicit_queue, token_holder
from repro.topology.builders import line, random_tree, star
from repro.topology.metrics import diameter
from repro.workload.driver import ExperimentDriver
from repro.workload.requests import CSRequest, Workload


def make_topology(shape: str, n: int, seed: int, holder_index: int):
    if shape == "line":
        base = line(n)
    elif shape == "star":
        base = star(n)
    else:
        base = random_tree(n, seed=seed)
    return base.with_token_holder(base.nodes[holder_index % n])


workload_strategy = st.tuples(
    st.sampled_from(["line", "star", "random"]),
    st.integers(min_value=2, max_value=12),          # system size
    st.integers(min_value=0, max_value=1_000),       # topology seed
    st.integers(min_value=0, max_value=11),          # holder index
    st.lists(                                        # (node index, gap, duration)
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        ),
        min_size=1,
        max_size=15,
    ),
)


def build_workload(topology, spec):
    requests = []
    time = 0.0
    for node_index, gap, duration in spec:
        time += gap
        requests.append(
            CSRequest(
                node=topology.nodes[node_index % topology.size],
                arrival_time=time,
                cs_duration=duration,
            )
        )
    return Workload(requests=tuple(requests), description="hypothesis workload")


class CheckingDagSystem(DagSystem):
    """DagSystem whose engine run is interleaved with invariant checking."""

    def __init__(self, topology, **kwargs):
        super().__init__(topology, **kwargs)
        from repro.core.invariants import InvariantChecker

        self._protocol_view = _ProtocolView(self)
        self.checker = InvariantChecker(self._protocol_view)

    def run(self, *, max_events=None, until=None):
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            stepped = self.engine.run(max_events=1, until=until)
            if stepped == 0:
                break
            processed += stepped
            self.checker.check()
        return processed


class _ProtocolView:
    """Adapter giving the invariant checker the interface it expects."""

    def __init__(self, system):
        self.topology = system.topology
        self.nodes = system.nodes
        self.network = system.network


@given(workload_strategy)
@settings(max_examples=60, deadline=None)
def test_safety_and_liveness_under_random_workloads(spec):
    shape, n, seed, holder_index, request_spec = spec
    topology = make_topology(shape, n, seed, holder_index)
    workload = build_workload(topology, request_spec)
    system = CheckingDagSystem(topology)
    driver = ExperimentDriver(system, workload)
    result = driver.run()
    # Liveness: every request was eventually granted (deadlock/starvation
    # freedom, Theorems 1 and 2), and safety held after every single event.
    assert result.completed_entries == len(workload)
    assert system.checker.checks_performed > 0


@given(workload_strategy)
@settings(max_examples=40, deadline=None)
def test_message_bound_for_isolated_requests(spec):
    """With no contention, an entry never needs more than D + 1 messages."""
    shape, n, seed, holder_index, request_spec = spec
    topology = make_topology(shape, n, seed, holder_index)
    bound = diameter(topology) + 1
    # Space the requests far apart so they never overlap.
    requests = tuple(
        CSRequest(
            node=topology.nodes[node_index % topology.size],
            arrival_time=index * 10_000.0,
            cs_duration=1.0,
        )
        for index, (node_index, _gap, _duration) in enumerate(request_spec)
    )
    workload = Workload(requests=requests)
    system = DagSystem(topology, record_trace=True)
    result = ExperimentDriver(system, workload).run()
    assert result.completed_entries == len(workload)
    # Check the per-entry bound off the trace: the sends between a request
    # and its entry are all that entry's, since no two requests overlap.
    spent = 0
    for event in system.trace:
        if event.category == "cs_request":
            spent = 0
        elif event.category == "send":
            spent += 1
        elif event.category == "cs_enter":
            assert spent <= bound


@given(workload_strategy)
@settings(max_examples=40, deadline=None)
def test_implicit_queue_is_well_formed_at_every_entry(spec):
    """At each entry the FOLLOW-derived queue has no duplicates and never
    contains the node that just entered (its predecessor cleared FOLLOW)."""
    shape, n, seed, holder_index, request_spec = spec
    topology = make_topology(shape, n, seed, holder_index)
    workload = build_workload(topology, request_spec)
    system = DagSystem(topology)
    protocol_view = _ProtocolView(system)

    grant_log = []

    class RecordingDriver(ExperimentDriver):
        def _handle_enter(self, node_id, time):
            grant_log.append((node_id, implicit_queue(protocol_view)))
            super()._handle_enter(node_id, time)

    result = RecordingDriver(system, workload).run()
    assert result.completed_entries == len(workload)
    assert len(grant_log) == len(workload)
    for entering_node, queue in grant_log:
        assert entering_node not in queue
        assert len(queue) == len(set(queue))
        # Everyone queued behind the entering node is genuinely waiting.
        for queued in queue:
            assert queued in system.nodes


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=500))
@settings(max_examples=50, deadline=None)
def test_quiescent_state_has_single_sink_at_token(n, seed):
    """After any finished workload the structure is back to the Chapter 3 shape."""
    topology = random_tree(n, seed=seed)
    protocol = DagMutexProtocol(topology, check_invariants=True)
    # Everyone requests once, in a deterministic order derived from the seed.
    order = list(topology.nodes)
    for requester in order:
        protocol.request(requester)
        protocol.run_until_quiescent()
        in_cs = [nid for nid in protocol.node_ids if protocol.node(nid).in_critical_section]
        protocol.release(in_cs[0])
        protocol.run_until_quiescent()
    sinks = [nid for nid in protocol.node_ids if protocol.node(nid).next_node is None]
    assert len(sinks) == 1
    assert token_holder(protocol) == sinks[0]
    assert all(protocol.node(nid).follow is None for nid in protocol.node_ids)
