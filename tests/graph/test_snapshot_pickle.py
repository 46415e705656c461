"""GraphSnapshot (and everything it contains) pickles round-trip.

Snapshots are the unit of shipping in the cluster runtime
(:mod:`repro.cluster`): the process-pool backend pickles one snapshot
per graph version into each worker. These tests pin down that the
round-trip preserves every index and memo — and that the id/path/
assignment sorts, whose immutability guards defeat the default slots
pickling path, stay picklable.
"""

from __future__ import annotations

import pickle
import random

import pytest

from reference import assert_adjacency_is_the_model, random_graph
from repro.gpc.assignments import Assignment
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.graph import PropertyGraph
from repro.graph.builder import GraphBuilder
from repro.graph.columns import SnapshotColumns, build_columns
from repro.graph.generators import social_network
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.paths import Path


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.fixture
def mixed():
    return (
        GraphBuilder()
        .node("a", "P", name="Ann", age=7)
        .node("b", "P", name="Bob")
        .node("c", "Q")
        .edge("a", "b", "knows", key="e1", since=2015)
        .edge("b", "c", "likes", key="e2")
        .undirected("a", "c", "married", key="u1")
        .build()
    )


class TestIdentifierSorts:
    @pytest.mark.parametrize(
        "element",
        [NodeId("a"), NodeId(7), DirectedEdgeId("e1"), UndirectedEdgeId(("t", 1))],
        ids=["node-str", "node-int", "dedge", "uedge-tuple"],
    )
    def test_ids_roundtrip(self, element):
        restored = _roundtrip(element)
        assert restored == element
        assert hash(restored) == hash(element)
        assert type(restored) is type(element)

    def test_sort_disjointness_survives(self):
        # node("1") and dedge("1") must stay unequal after a round-trip.
        assert _roundtrip(NodeId("1")) != DirectedEdgeId("1")

    def test_paths_roundtrip(self, mixed):
        node = next(mixed.iter_nodes())
        edge = next(mixed.iter_directed_edges())
        path = Path.of(mixed.source(edge), edge, mixed.target(edge))
        for p in (Path.node(node), path):
            restored = _roundtrip(p)
            assert restored == p and hash(restored) == hash(p)

    def test_assignments_roundtrip(self):
        mu = Assignment({"x": NodeId("a"), "e": DirectedEdgeId("e1")})
        restored = _roundtrip(mu)
        assert restored == mu and hash(restored) == hash(mu)


class TestSnapshotRoundTrip:
    def test_every_index_survives(self, mixed):
        snap = mixed.snapshot()
        restored = _roundtrip(snap)
        assert restored.version == snap.version
        assert restored.nodes == snap.nodes
        assert restored.directed_edges == snap.directed_edges
        assert restored.undirected_edges == snap.undirected_edges
        for node in snap.nodes:
            assert restored.out_edges(node) == snap.out_edges(node)
            assert restored.in_edges(node) == snap.in_edges(node)
            assert restored.undirected_edges_at(node) == (
                snap.undirected_edges_at(node)
            )
        assert_adjacency_is_the_model(restored, mixed)
        for element in (
            list(snap.nodes) + list(snap.directed_edges)
            + list(snap.undirected_edges)
        ):
            assert restored.labels(element) == snap.labels(element)
            assert restored.properties(element) == snap.properties(element)
        for label in snap.all_labels():
            assert restored.nodes_with_label(label) == snap.nodes_with_label(label)
            assert restored.directed_edges_with_label(label) == (
                snap.directed_edges_with_label(label)
            )
            assert restored.undirected_edges_with_label(label) == (
                snap.undirected_edges_with_label(label)
            )

    def test_cardinality_memo_survives(self, mixed):
        snap = mixed.snapshot()
        cards = snap.label_cardinalities()  # populate the memo
        restored = _roundtrip(snap)
        assert restored.label_cardinalities() == cards

    def test_unpopulated_memo_rebuilds(self, mixed):
        # A snapshot pickled before label_cardinalities() was ever
        # called must still compute it on the restored copy.
        restored = _roundtrip(mixed.snapshot())
        assert restored.label_cardinalities() == (
            mixed.snapshot().label_cardinalities()
        )

    def test_evaluation_agrees_on_restored_snapshot(self):
        graph = social_network(num_people=10, friend_degree=2, seed=5)
        snap = graph.snapshot()
        restored = _roundtrip(snap)
        for text in [
            "TRAIL (x:Person) -[e:knows]-> (y:Person)",
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
            "SIMPLE (x:Person) ~[:married]~ (y:Person)",
        ]:
            query = parse_query(text)
            reference = Evaluator(snap).evaluate(query)
            assert Evaluator(restored).evaluate(query) == reference
            # Answers themselves (paths + assignments) round-trip too:
            # the gather side unpickles them from worker processes.
            assert _roundtrip(reference) == reference


def _corner_graphs():
    yield "empty", PropertyGraph()
    yield "isolated node", GraphBuilder().node("a").build()
    yield "undirected self-loop", (
        GraphBuilder().node("a", "P").undirected("a", "a", "m", key="u").build()
    )
    two = PropertyGraph()
    a = two.add_node("a", ["P", "Q"], {"k": 1})
    two.add_edge("e", a, a, ["r", "s"])
    two.add_undirected_edge("u", a, two.add_node("b"), ["m", "r"])
    yield "two labels", two
    for seed in range(25):
        yield f"random_graph({seed})", random_graph(random.Random(seed))


class TestTwoRoutesOneCore:
    """The core is reached two ways — columnarised from the mutable
    graph, rebuilt from a pickle payload — and both hand their
    irreducible columns to one index pass. Whatever route, same core."""

    @pytest.mark.parametrize(
        "graph", [pytest.param(g, id=name) for name, g in _corner_graphs()]
    )
    def test_build_and_load_agree_slot_by_slot(self, graph):
        built = build_columns(graph)
        loaded = SnapshotColumns.from_payload(built.payload())
        compared = 0
        for slot in SnapshotColumns.__slots__:
            if slot.startswith("_"):
                continue  # lazy caches, never shipped
            left, right = getattr(built, slot), getattr(loaded, slot)
            # ``array`` buffers (bare and as dict values) compare by value.
            assert type(left) is type(right), slot
            assert left == right, slot
            compared += 1
        assert compared == 30
