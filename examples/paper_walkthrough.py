#!/usr/bin/env python3
"""Replay the paper's two worked examples, printing every step.

Chapter 3's simple example (Figure 2) and Chapter 4's complete example
(Figure 6) are the clearest specification of the algorithm.  This script
drives the implementation through both, printing the same state tables the
thesis prints after every step, so you can put the output next to the paper
and compare line by line.  Figure 6's initial ``NEXT`` pointers are first
established the way the paper does it, by Figure 5's INITIALIZE flood.

Run with::

    python examples/paper_walkthrough.py
"""

from __future__ import annotations

from repro.baselines.dag_adapter import DagMutexProtocol, run_initialization
from repro.core.inspector import implicit_queue
from repro.topology import paper_figure2_topology, paper_figure6_topology
from repro.viz.state_table import render_state_table


def show(protocol: DagMutexProtocol, caption: str) -> None:
    print(render_state_table(protocol, title=caption))
    print()


def figure2() -> None:
    print("=" * 72)
    print("Figure 2 — the Chapter 3 example (6-node line, token at node 5)")
    print("=" * 72)
    protocol = DagMutexProtocol(paper_figure2_topology(), record_trace=True)
    show(protocol, "2a: initial configuration, node 5 holds the token")

    protocol.request(5)
    show(protocol, "2a: node 5 enters its critical section")

    protocol.request(3)
    show(protocol, "2b: node 3 sends REQUEST(3,3) to node 4 and sets NEXT_3 = 0")

    protocol.run(max_events=1)
    show(protocol, "2c: node 4 forwards REQUEST(4,3) to node 5 and sets NEXT_4 = 3")

    protocol.run(max_events=1)
    show(protocol, "2d: node 5 sets FOLLOW_5 = 3 and NEXT_5 = 4")

    protocol.release(5)
    protocol.run_until_quiescent()
    show(protocol, "2e: node 5 released; node 3 received the PRIVILEGE and entered")
    protocol.release(3)


def figure5() -> None:
    print("=" * 72)
    print("Figure 5 — the INITIALIZE flood, on the Figure 6 tree")
    print("=" * 72)
    topology = paper_figure6_topology()
    adjacency = {node: topology.neighbors(node) for node in topology.nodes}
    flooded = run_initialization(adjacency, topology.token_holder)
    print("NEXT after the flood from node 3:", flooded)
    assert flooded == topology.next_pointers()
    print("...which equals the orientation the topology computes analytically,")
    print("the initial configuration Figure 6a starts from.")


def figure6() -> None:
    print("=" * 72)
    print("Figure 6 — the Chapter 4 complete example")
    print("=" * 72)
    protocol = DagMutexProtocol(paper_figure6_topology(), record_trace=True)
    show(protocol, "6a: initial configuration, node 3 holds the token")

    protocol.request(3)
    protocol.request(2)
    protocol.run_until_quiescent()
    show(protocol, "6c: node 3 executing, node 2 captured in FOLLOW_3")

    protocol.request(1)
    protocol.request(5)
    show(protocol, "6d: nodes 1 and 5 have sent requests to node 2")

    protocol.run(max_events=1)
    show(protocol, "6e: node 2 processed node 1's request (FOLLOW_2 = 1, NEXT_2 = 1)")

    protocol.run(max_events=1)
    show(protocol, "6f: node 2 forwarded node 5's request to node 1 (NEXT_2 = 5)")

    protocol.run_until_quiescent()
    show(protocol, "6g: node 1 captured node 5 (FOLLOW_1 = 5, NEXT_1 = 2)")
    print(f"The implicit global queue, read from the FOLLOW pointers: "
          f"{[3] + implicit_queue(protocol)} (the paper says 3, 2, 1, 5)")
    print()

    for step, node in zip(("6h", "6i", "6j", "6k"), (3, 2, 1, 5)):
        protocol.release(node)
        protocol.run_until_quiescent()
        show(protocol, f"{step}: node {node} released the critical section")

    print("Final holder:", [n for n in protocol.node_ids if protocol.node(n).has_token()])
    print("Messages used:", protocol.metrics.messages_by_type,
          "(the paper's example uses 4 REQUESTs and 3 PRIVILEGEs)")


def main() -> None:
    figure2()
    print()
    figure5()
    print()
    figure6()


if __name__ == "__main__":
    main()
