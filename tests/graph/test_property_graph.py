"""The property-graph data model (Section 2)."""

import gc

import pytest

from reference import assert_adjacency_is_the_model
from repro.errors import DuplicateIdError, GraphError, UnknownIdError
from repro.graph.builder import GraphBuilder
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.property_graph import PropertyGraph


@pytest.fixture
def graph() -> PropertyGraph:
    g = PropertyGraph()
    g.add_node("u", labels={"A", "B"}, properties={"k": 1})
    g.add_node("v", labels={"A"})
    g.add_node("w")
    g.add_edge("d1", NodeId("u"), NodeId("v"), labels={"a"}, properties={"w": 2})
    g.add_undirected_edge("u1", NodeId("v"), NodeId("w"), labels={"b"})
    return g


class TestConstruction:
    def test_counts(self, graph):
        assert graph.num_nodes == 3
        assert graph.num_directed_edges == 1
        assert graph.num_undirected_edges == 1
        assert graph.num_edges == 2
        assert len(graph) == 3

    def test_duplicate_node_rejected(self, graph):
        with pytest.raises(DuplicateIdError):
            graph.add_node("u")

    def test_duplicate_directed_edge_rejected(self, graph):
        with pytest.raises(DuplicateIdError):
            graph.add_edge("d1", NodeId("u"), NodeId("v"))

    def test_duplicate_undirected_edge_rejected(self, graph):
        with pytest.raises(DuplicateIdError):
            graph.add_undirected_edge("u1", NodeId("u"), NodeId("v"))

    def test_edge_to_unknown_node_rejected(self, graph):
        with pytest.raises(UnknownIdError):
            graph.add_edge("d2", NodeId("u"), NodeId("zz"))

    def test_parallel_edges_allowed(self, graph):
        graph.add_edge("d2", NodeId("u"), NodeId("v"), labels={"a"})
        assert graph.num_directed_edges == 2

    def test_directed_self_loop_allowed(self, graph):
        edge = graph.add_edge("loop", NodeId("u"), NodeId("u"))
        assert graph.source(edge) == graph.target(edge) == NodeId("u")

    def test_undirected_self_loop_has_singleton_endpoints(self, graph):
        edge = graph.add_undirected_edge("uloop", NodeId("w"), NodeId("w"))
        assert graph.endpoints(edge) == frozenset({NodeId("w")})

    def test_mutable_property_value_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.set_property(NodeId("u"), "bad", [1, 2])

    def test_non_string_property_key_rejected(self):
        g = PropertyGraph()
        with pytest.raises(GraphError):
            g.add_node("n", properties={1: "x"})


class TestAccessors:
    def test_labels(self, graph):
        assert graph.labels(NodeId("u")) == frozenset({"A", "B"})
        assert graph.labels(NodeId("w")) == frozenset()
        assert graph.labels(DirectedEdgeId("d1")) == frozenset({"a"})

    def test_labels_unknown_element(self, graph):
        with pytest.raises(UnknownIdError):
            graph.labels(NodeId("zz"))

    def test_source_target(self, graph):
        assert graph.source(DirectedEdgeId("d1")) == NodeId("u")
        assert graph.target(DirectedEdgeId("d1")) == NodeId("v")

    def test_endpoints(self, graph):
        assert graph.endpoints(UndirectedEdgeId("u1")) == frozenset(
            {NodeId("v"), NodeId("w")}
        )

    def test_property_partiality(self, graph):
        assert graph.get_property(NodeId("u"), "k") == 1
        assert graph.get_property(NodeId("u"), "missing") is None
        assert graph.get_property(NodeId("v"), "k") is None
        assert graph.has_property(NodeId("u"), "k")
        assert not graph.has_property(NodeId("v"), "k")

    def test_remove_property(self, graph):
        graph.remove_property(NodeId("u"), "k")
        assert graph.get_property(NodeId("u"), "k") is None
        with pytest.raises(UnknownIdError):
            graph.remove_property(NodeId("u"), "k")

    def test_properties_snapshot_is_read_only_copy(self, graph):
        snapshot = dict(graph.properties(NodeId("u")))
        snapshot["k"] = 999
        assert graph.get_property(NodeId("u"), "k") == 1


class TestLabelIndexes:
    def test_nodes_with_label(self, graph):
        assert graph.nodes_with_label("A") == frozenset({NodeId("u"), NodeId("v")})
        assert graph.nodes_with_label("Z") == frozenset()

    def test_edges_with_label(self, graph):
        assert graph.directed_edges_with_label("a") == frozenset(
            {DirectedEdgeId("d1")}
        )
        assert graph.undirected_edges_with_label("b") == frozenset(
            {UndirectedEdgeId("u1")}
        )

    def test_all_labels(self, graph):
        assert graph.all_labels() == frozenset({"A", "B", "a", "b"})


class TestAdjacency:
    """Adjacency is an index, and the snapshot owns it: the graph keeps
    the tuple only."""

    def test_out_in_edges(self, graph):
        snap = graph.snapshot()
        assert snap.out_edges(NodeId("u")) == (DirectedEdgeId("d1"),)
        assert snap.in_edges(NodeId("v")) == (DirectedEdgeId("d1"),)
        assert snap.out_edges(NodeId("v")) == ()
        assert_adjacency_is_the_model(snap, graph)

    def test_undirected_at(self, graph):
        assert graph.snapshot().undirected_edges_at(NodeId("v")) == (
            UndirectedEdgeId("u1"),
        )

    def test_degree(self, graph):
        snap = graph.snapshot()
        assert snap.degree(NodeId("u")) == 1
        assert snap.degree(NodeId("v")) == 2  # in-edge + undirected

    def test_neighbours(self, graph):
        assert graph.snapshot().neighbours(NodeId("v")) == frozenset(
            {NodeId("u"), NodeId("w")}
        )

    def test_the_graph_keeps_no_adjacency_index(self, graph):
        for name in (
            "out_edges", "in_edges", "undirected_edges_at",
            "degree", "num_edges_at", "neighbours",
            "_out", "_in", "_undirected_at",
        ):
            assert not hasattr(graph, name), name

    def test_an_edge_free_graph_holds_no_container_per_node(self):
        gc.collect()
        before = sum(type(o) is set for o in gc.get_objects())
        g = PropertyGraph()
        for i in range(1_000):
            g.add_node(i)
        gc.collect()
        after = sum(type(o) is set for o in gc.get_objects())
        assert g.num_nodes == 1_000
        assert after - before < 10

    def test_other_endpoint(self, graph):
        assert graph.other_endpoint(UndirectedEdgeId("u1"), NodeId("v")) == NodeId("w")
        with pytest.raises(GraphError):
            graph.other_endpoint(UndirectedEdgeId("u1"), NodeId("u"))

    def test_other_endpoint_self_loop(self, graph):
        edge = graph.add_undirected_edge("uloop", NodeId("w"), NodeId("w"))
        assert graph.other_endpoint(edge, NodeId("w")) == NodeId("w")


class TestEqualityAndCopy:
    def test_copy_is_equal_but_independent(self, graph):
        clone = graph.copy()
        assert clone == graph
        clone.add_node("extra")
        assert clone != graph
        assert not graph.has_node(NodeId("extra"))

    def test_contains(self, graph):
        assert NodeId("u") in graph
        assert DirectedEdgeId("d1") in graph
        assert NodeId("zz") not in graph
        assert "not-an-id" not in graph


class TestRemoval:
    def test_remove_edge(self, graph):
        graph.remove_edge(DirectedEdgeId("d1"))
        assert not graph.has_edge(DirectedEdgeId("d1"))
        snap = graph.snapshot()
        assert snap.out_edges(NodeId("u")) == ()
        assert snap.in_edges(NodeId("v")) == ()
        assert_adjacency_is_the_model(snap, graph)
        with pytest.raises(UnknownIdError):
            graph.source(DirectedEdgeId("d1"))
        with pytest.raises(UnknownIdError):
            graph.get_property(DirectedEdgeId("d1"), "w")

    def test_remove_undirected_edge(self, graph):
        graph.remove_undirected_edge(UndirectedEdgeId("u1"))
        assert not graph.has_edge(UndirectedEdgeId("u1"))
        snap = graph.snapshot()
        assert snap.undirected_edges_at(NodeId("v")) == ()
        assert snap.undirected_edges_at(NodeId("w")) == ()
        assert_adjacency_is_the_model(snap, graph)
        with pytest.raises(UnknownIdError):
            graph.endpoints(UndirectedEdgeId("u1"))

    def test_remove_node_cascades(self, graph):
        graph.remove_node(NodeId("v"))
        assert not graph.has_node(NodeId("v"))
        # Incident directed and undirected edges went with it.
        assert not graph.has_edge(DirectedEdgeId("d1"))
        assert not graph.has_edge(UndirectedEdgeId("u1"))
        snap = graph.snapshot()
        assert snap.out_edges(NodeId("u")) == ()
        assert snap.undirected_edges_at(NodeId("w")) == ()
        assert_adjacency_is_the_model(snap, graph)
        assert graph.num_nodes == 2 and graph.num_edges == 0

    def test_remove_node_with_self_loops(self):
        g = PropertyGraph()
        n = g.add_node("n")
        g.add_edge("loop", n, n)
        g.add_undirected_edge("uloop", n, n)
        g.remove_node(n)
        assert g.num_nodes == 0 and g.num_edges == 0
        assert g == PropertyGraph()

    def test_remove_unknown_raises(self, graph):
        with pytest.raises(UnknownIdError):
            graph.remove_node(NodeId("zz"))
        with pytest.raises(UnknownIdError):
            graph.remove_edge(DirectedEdgeId("zz"))
        with pytest.raises(UnknownIdError):
            graph.remove_undirected_edge(UndirectedEdgeId("zz"))

    def test_removed_key_is_reusable(self, graph):
        graph.remove_edge(DirectedEdgeId("d1"))
        graph.add_edge("d1", NodeId("v"), NodeId("u"), labels={"c"})
        assert graph.source(DirectedEdgeId("d1")) == NodeId("v")

    def test_add_remove_roundtrip_restores_equality(self, graph):
        reference = graph.copy()
        node = graph.add_node("tmp", labels={"T"}, properties={"x": 1})
        graph.add_edge("tmp-e", node, NodeId("u"))
        graph.remove_node(node)
        assert graph == reference


class TestVersionCounter:
    def test_every_mutation_bumps(self):
        g = PropertyGraph()
        versions = [g.version]

        def record(value):
            versions.append(g.version)
            return value

        u = record(g.add_node("u"))
        v = record(g.add_node("v"))
        e = record(g.add_edge("e", u, v))
        w = record(g.add_undirected_edge("w", u, v))
        g.set_property(u, "k", 1)
        record(None)
        g.remove_property(u, "k")
        record(None)
        g.remove_edge(e)
        record(None)
        g.remove_undirected_edge(w)
        record(None)
        g.remove_node(v)
        record(None)
        assert versions == sorted(set(versions)), "versions must be strictly increasing"
        assert len(versions) == 10

    def test_reads_do_not_bump(self, graph):
        version = graph.version
        graph.nodes, graph.all_labels()
        graph.snapshot().out_edges(NodeId("u"))
        assert graph.version == version


class TestConstantChecking:
    def test_rejects_toplevel_mutables(self, graph):
        for bad in ([1], {"k": 1}, {1, 2}, bytearray(b"x")):
            with pytest.raises(GraphError):
                graph.set_property(NodeId("u"), "p", bad)

    def test_rejects_mutables_nested_in_tuples(self, graph):
        for bad in (("a", [1]), (1, (2, {"k": 3})), ((({4},),),)):
            with pytest.raises(GraphError):
                graph.set_property(NodeId("u"), "p", bad)
        with pytest.raises(GraphError):
            graph.add_node("bad", properties={"p": ("a", [1])})

    def test_accepts_immutable_tuples(self, graph):
        graph.set_property(NodeId("u"), "p", ("a", (1, 2), frozenset({3})))
        assert graph.get_property(NodeId("u"), "p") == (
            "a", (1, 2), frozenset({3})
        )

    def test_an_id_is_a_constant_when_its_key_is(self, graph):
        graph.set_property(NodeId("u"), "p", DirectedEdgeId(("t", 1)))
        assert graph.get_property(NodeId("u"), "p") == DirectedEdgeId(("t", 1))
        with pytest.raises(GraphError):
            graph.set_property(NodeId("u"), "q", NodeId(("a", [1])))

    def test_rejects_none(self, graph):
        with pytest.raises(GraphError):
            graph.set_property(NodeId("u"), "p", None)
        with pytest.raises(GraphError):
            graph.add_node("bad", properties={"p": None})


class TestSharedLabelSets:
    """Equal label sets are one object per graph, however they are given."""

    GIVEN = (["A", "B"], ("B", "A"), {"A", "B"}, frozenset({"B", "A"}))

    def test_nodes(self):
        g = PropertyGraph()
        nodes = [g.add_node(i, labels=labels) for i, labels in enumerate(self.GIVEN)]
        nodes.append(g.add_node("gen", labels=(l for l in "ABA")))
        assert len({id(g.labels(n)) for n in nodes}) == 1
        assert g.labels(nodes[0]) == frozenset({"A", "B"})

    def test_both_edge_kinds(self):
        g = PropertyGraph()
        u, v = g.add_node("u", labels=["A", "B"]), g.add_node("v")
        elements = [u]
        for i, labels in enumerate(self.GIVEN):
            elements.append(g.add_edge(f"d{i}", u, v, labels=labels))
            elements.append(g.add_undirected_edge(f"u{i}", u, v, labels=labels))
        assert len({id(g.labels(e)) for e in elements}) == 1
        assert g.labels(v) is g.labels(g.add_edge("plain", v, u))

    def test_builder_relabel(self):
        b = GraphBuilder().node("a", "A").node("a", "B").node("b", "B", "A")
        g = b.edge("a", "b", "A", "B").build()
        (edge,) = g.directed_edges
        assert g.labels(NodeId("a")) is g.labels(NodeId("b")) is g.labels(edge)

    def test_copy(self):
        g = PropertyGraph()
        a = g.add_node("a", labels=["A", "B"])
        h = g.copy()
        b = h.add_node("b", labels=("B", "A"))
        e = h.add_edge("e", a, b, labels={"A", "B"})
        assert h.labels(a) is h.labels(b) is h.labels(e) is g.labels(a)
