"""Unit tests for the trace recorder."""

from __future__ import annotations

from pathlib import Path

from repro.sim.trace import TraceRecorder

SPECS_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"


def test_record_and_read_back():
    trace = TraceRecorder()
    trace.record(1.0, "send", 1, to=2, message="REQUEST")
    trace.record(2.0, "receive", 2, sender=1, message="REQUEST")
    assert len(trace) == 2
    assert trace.events[0].category == "send"
    assert trace.events[1].detail["sender"] == 1


def test_disabled_recorder_is_a_noop():
    trace = TraceRecorder(enabled=False)
    trace.record(1.0, "send", 1)
    assert len(trace) == 0


def test_iteration_yields_events_in_order():
    trace = TraceRecorder()
    trace.record(0.0, "a", 1)
    trace.record(1.0, "b", 2)
    assert [event.category for event in trace] == ["a", "b"]


def test_chrome_trace_replay_is_byte_identical():
    """A committed spec replays to a byte-identical Chrome trace document.

    This is the deterministic-replay contract of the exporter: same spec,
    same trace bytes — the sim side of the obs acceptance criterion.
    """
    import dataclasses

    from repro.obs.chrome_trace import chrome_trace_document, sim_trace_events
    from repro.spec import ExperimentSpec
    from repro.sweep import canonical_json
    from repro.workload.driver import ExperimentDriver

    spec = ExperimentSpec.load(str(SPECS_DIR / "dag_star50_heavy_crash_recover.json"))
    spec = dataclasses.replace(spec, record_trace=True)

    def export() -> str:
        driver = ExperimentDriver.from_spec(spec)
        driver.run(max_events=5_000_000)
        events = sim_trace_events(driver.system.trace.events)
        assert events, "the committed spec must produce trace events"
        return canonical_json(
            chrome_trace_document(events, metadata={"source": spec.name})
        )

    assert export() == export()
