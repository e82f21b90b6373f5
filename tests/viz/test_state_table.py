"""Unit tests for Figure-6-style state tables."""

from __future__ import annotations

from repro.baselines.dag_adapter import DagMutexProtocol
from repro.topology import paper_figure6_topology
from repro.viz.state_table import render_state_table, state_table_rows


def test_rows_follow_paper_conventions():
    protocol = DagMutexProtocol(paper_figure6_topology())
    rows = state_table_rows(protocol)
    assert [row["I"] for row in rows] == ["HOLDING_I", "NEXT_I", "FOLLOW_I"]
    holding, next_row, follow = rows
    # Figure 6a: node 3 holds the token; its NEXT and every FOLLOW are 0.
    assert holding["3"] == "t"
    assert all(holding[str(node)] == "f" for node in (1, 2, 4, 5, 6))
    assert next_row["3"] == "0"
    assert next_row["1"] == "2"
    assert all(follow[str(node)] == "0" for node in range(1, 7))


def test_rows_track_protocol_progress():
    protocol = DagMutexProtocol(paper_figure6_topology())
    protocol.request(3)
    protocol.request(2)
    protocol.run_until_quiescent()
    rows = {row["I"]: row for row in state_table_rows(protocol)}
    # Figure 6c: FOLLOW_3 = 2, NEXT_3 = 2, node 3 no longer "holding" (it is
    # executing, which the paper's table also shows as f).
    assert rows["FOLLOW_I"]["3"] == "2"
    assert rows["NEXT_I"]["3"] == "2"
    assert rows["HOLDING_I"]["3"] == "f"


def test_render_state_table_is_aligned_text():
    protocol = DagMutexProtocol(paper_figure6_topology())
    text = render_state_table(protocol, title="Figure 6a")
    lines = text.splitlines()
    assert lines[0] == "Figure 6a"
    assert "HOLDING_I" in text
    assert "NEXT_I" in text
    assert "FOLLOW_I" in text
    # Header row lists the node columns.
    assert all(str(node) in lines[2] for node in range(1, 7))
