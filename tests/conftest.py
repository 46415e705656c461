"""Shared fixtures: the small graphs used across the suite, and the
served ``shortest`` length search on pristine and overlay snapshots."""

from __future__ import annotations

import pytest

from repro.gpc.register_nfa import lower_program, shortest_pair_lengths
from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    chain_graph,
    cycle_graph,
    section7_counterexample,
    theorem13_gadget,
)
from repro.graph.property_graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot


@pytest.fixture
def empty_graph() -> PropertyGraph:
    return PropertyGraph()


@pytest.fixture
def tiny_graph() -> PropertyGraph:
    """Two Person nodes joined by a knows edge, plus properties."""
    return (
        GraphBuilder()
        .node("a", "Person", name="Ann", age=30)
        .node("b", "Person", name="Bob", age=40)
        .edge("a", "b", "knows", key="e1", since=2015)
        .build()
    )


@pytest.fixture
def diamond_graph() -> PropertyGraph:
    """A diamond: s -> m1 -> t and s -> m2 -> t, plus a direct s -> t."""
    return (
        GraphBuilder()
        .node("s", "S", k=1)
        .node("m1", "M", k=2)
        .node("m2", "M", k=2)
        .node("t", "T", k=1)
        .edge("s", "m1", "e", key="e1")
        .edge("m1", "t", "e", key="e2")
        .edge("s", "m2", "e", key="e3")
        .edge("m2", "t", "e", key="e4")
        .edge("s", "t", "direct", key="e5")
        .build()
    )


@pytest.fixture
def mixed_graph() -> PropertyGraph:
    """Directed and undirected edges, self-loops, multi-edges."""
    builder = (
        GraphBuilder()
        .node("u", "N", k=1)
        .node("v", "N", k=2)
        .node("w", "M")
        .edge("u", "v", "a", key="d1")
        .edge("u", "v", "a", key="d2")  # parallel edge
        .edge("u", "u", "loop", key="d3")  # directed self-loop
        .undirected("u", "v", "b", key="u1")
        .undirected("w", "w", "b", key="u2")  # undirected self-loop
    )
    return builder.build()


@pytest.fixture
def cycle4() -> PropertyGraph:
    return cycle_graph(4)


@pytest.fixture
def chain5() -> PropertyGraph:
    return chain_graph(5, value_key="v")


@pytest.fixture
def gadget13() -> PropertyGraph:
    return theorem13_gadget()


@pytest.fixture
def graph_s7() -> PropertyGraph:
    return section7_counterexample()


def _overlay_snapshot(graph: PropertyGraph) -> GraphSnapshot:
    """A snapshot of the same graph derived over patched CSR rows: after
    a first ``snapshot()`` a scratch node every node points at is added
    and removed again, so each row is an overlay row and the dense
    search steps through the view accessors."""
    base = graph.snapshot()
    scratch = graph.add_node(f"scratch{graph.version}")
    for node in base.nodes:
        graph.add_edge(f"scratch{graph.version}", node, scratch)
    graph.remove_node(scratch)
    derived = GraphSnapshot.derive(base, graph.deltas_since(base.version))
    assert derived.overlay_ops
    return derived


@pytest.fixture(params=["pristine", "overlay"])
def view_of(request):
    """``view_of(graph)``: a pristine snapshot of ``graph``, or (second
    parameter) one derived over patched CSR rows."""
    return GraphSnapshot if request.param == "pristine" else _overlay_snapshot


@pytest.fixture(params=["pristine", "overlay"])
def pair_lengths(request):
    """``pair_lengths(graph, nfa, start)``: the ``shortest`` length
    search as served, on a pristine snapshot of ``graph`` or (second
    parameter) on an overlay-derived one: the lengths, or the typed
    error it raises."""

    def run(graph, nfa, start):
        view = (
            GraphSnapshot(graph)
            if request.param == "pristine"
            else _overlay_snapshot(graph)
        )
        return shortest_pair_lengths(lower_program(nfa, view), start)

    return run
