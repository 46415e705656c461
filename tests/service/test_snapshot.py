"""GraphSnapshot: immutability, memoisation, index agreement."""

from __future__ import annotations

import pytest

from reference import assert_adjacency_is_the_model
from repro.errors import GraphError, UnknownIdError
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.graph.builder import GraphBuilder
from repro.graph.generators import cycle_graph


@pytest.fixture
def mixed():
    return (
        GraphBuilder()
        .node("a", "P", name="Ann")
        .node("b", "P", name="Bob")
        .node("c", "Q")
        .edge("a", "b", "knows", key="e1", since=2015)
        .edge("b", "c", "likes", key="e2")
        .undirected("a", "c", "married", key="u1")
        .build()
    )


class TestIndexAgreement:
    def test_carrier_sets(self, mixed):
        snap = mixed.snapshot()
        assert frozenset(snap.nodes) == mixed.nodes
        assert frozenset(snap.directed_edges) == mixed.directed_edges
        assert frozenset(snap.undirected_edges) == mixed.undirected_edges
        assert snap.num_nodes == mixed.num_nodes
        assert snap.num_edges == mixed.num_edges

    def test_adjacency(self, mixed):
        assert_adjacency_is_the_model(mixed.snapshot(), mixed)

    def test_label_indexes(self, mixed):
        snap = mixed.snapshot()
        for label in mixed.all_labels() | {"absent"}:
            assert frozenset(snap.nodes_with_label(label)) == (
                mixed.nodes_with_label(label)
            )
            assert frozenset(snap.directed_edges_with_label(label)) == (
                mixed.directed_edges_with_label(label)
            )
            assert frozenset(snap.undirected_edges_with_label(label)) == (
                mixed.undirected_edges_with_label(label)
            )
        assert snap.all_labels() == mixed.all_labels()

    def test_formal_accessors(self, mixed):
        snap = mixed.snapshot()
        for edge in mixed.directed_edges:
            assert snap.source(edge) == mixed.source(edge)
            assert snap.target(edge) == mixed.target(edge)
            assert snap.labels(edge) == mixed.labels(edge)
        for edge in mixed.undirected_edges:
            assert snap.endpoints(edge) == mixed.endpoints(edge)
        for node in mixed.nodes:
            assert snap.properties(node) == mixed.properties(node)
            assert snap.get_property(node, "name") == (
                mixed.get_property(node, "name")
            )

    def test_unknown_ids_raise(self, mixed):
        from repro.graph.ids import NodeId

        snap = mixed.snapshot()
        ghost = NodeId("ghost")
        with pytest.raises(UnknownIdError):
            snap.out_edges(ghost)
        with pytest.raises(UnknownIdError):
            snap.labels(ghost)
        with pytest.raises(UnknownIdError):
            snap.get_property(ghost, "k")
        edge = next(mixed.iter_undirected_edges())
        with pytest.raises(GraphError):
            snap.other_endpoint(edge, ghost)


class TestVersioning:
    def test_memoised_per_version(self, mixed):
        assert mixed.snapshot() is mixed.snapshot()
        assert mixed.snapshot().version == mixed.version

    def test_new_snapshot_after_mutation(self, mixed):
        first = mixed.snapshot()
        mixed.add_node("d", labels={"P"})
        second = mixed.snapshot()
        assert second is not first
        assert second.version > first.version

    def test_snapshot_is_immutable_under_mutation(self, mixed):
        snap = mixed.snapshot()
        nodes_before = snap.nodes
        node = next(mixed.iter_nodes())
        out_before = snap.out_edges(node)
        mixed.remove_node(node)
        assert snap.nodes == nodes_before
        assert snap.out_edges(node) == out_before
        assert snap.has_node(node)
        assert not mixed.has_node(node)

    def test_snapshot_of_snapshot_is_identity(self, mixed):
        snap = mixed.snapshot()
        assert snap.snapshot() is snap

    def test_version_counts_every_mutation(self):
        graph = cycle_graph(3)
        start = graph.version
        node = next(graph.iter_nodes())
        graph.set_property(node, "k", 1)
        graph.remove_property(node, "k")
        assert graph.version == start + 2


class TestEvaluationOverSnapshots:
    QUERY = "SHORTEST (x) ->{1,} (y)"

    def test_evaluator_accepts_snapshot(self):
        graph = cycle_graph(4)
        from_graph = Evaluator(graph).evaluate(parse_query(self.QUERY))
        from_snap = Evaluator(graph.snapshot()).evaluate(
            parse_query(self.QUERY)
        )
        assert from_graph == from_snap

    def test_evaluator_pins_version(self):
        graph = cycle_graph(4)
        evaluator = Evaluator(graph)
        before = evaluator.evaluate(parse_query(self.QUERY))
        graph.add_node("extra")
        # The evaluator still sees the version it snapshotted.
        assert evaluator.evaluate(parse_query(self.QUERY)) == before
        # A fresh evaluator sees the mutation.
        assert Evaluator(graph).evaluate(
            parse_query("SIMPLE (x)")
        ) != before
