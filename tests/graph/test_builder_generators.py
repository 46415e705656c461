"""GraphBuilder fluency and the workload generators."""

import pytest

from repro.errors import WorkloadError
from repro.graph.builder import GraphBuilder
from repro.graph.ids import DirectedEdgeId, NodeId
from repro.graph import generators as G
from repro.graph.statistics import compute_statistics


class TestBuilder:
    def test_chaining_builds_expected_graph(self):
        g = (
            GraphBuilder()
            .node("a", "Person", name="Ann")
            .node("b", "Person")
            .edge("a", "b", "knows", since=2020)
            .undirected("a", "b", "sibling")
            .build()
        )
        assert g.num_nodes == 2
        assert g.num_directed_edges == 1
        assert g.num_undirected_edges == 1
        assert g.get_property(NodeId("a"), "name") == "Ann"

    def test_edges_create_missing_nodes(self):
        g = GraphBuilder().edge("x", "y", "e").build()
        assert g.has_node(NodeId("x")) and g.has_node(NodeId("y"))

    def test_re_adding_node_merges_labels_and_properties(self):
        g = (
            GraphBuilder()
            .node("a", "P", k=1)
            .node("a", "Q", j=2)
            .build()
        )
        assert g.labels(NodeId("a")) == frozenset({"P", "Q"})
        assert g.get_property(NodeId("a"), "k") == 1
        assert g.get_property(NodeId("a"), "j") == 2

    def test_chain_helper(self):
        g = GraphBuilder().chain(["a", "b", "c"], "next").build()
        assert g.num_directed_edges == 2

    def test_chain_needs_two_keys(self):
        with pytest.raises(Exception):
            GraphBuilder().chain(["a"], "next")

    def test_build_snapshots(self):
        builder = GraphBuilder().node("a")
        first = builder.build()
        builder.node("b")
        second = builder.build()
        assert first.num_nodes == 1
        assert second.num_nodes == 2

    def test_generated_edge_keys_unique(self):
        g = GraphBuilder().edge("a", "b").edge("a", "b").build()
        assert g.num_directed_edges == 2


class TestStructuredGenerators:
    def test_chain(self):
        g = G.chain_graph(4, value_key="v")
        assert g.num_nodes == 5
        assert g.num_directed_edges == 4
        assert g.get_property(NodeId("n3"), "v") == 3

    def test_chain_zero_length(self):
        assert G.chain_graph(0).num_nodes == 1

    def test_chain_negative_rejected(self):
        with pytest.raises(WorkloadError):
            G.chain_graph(-1)

    def test_cycle(self):
        g = G.cycle_graph(3)
        assert g.num_nodes == 3
        assert g.num_directed_edges == 3
        for node in g.nodes:
            assert len(g.snapshot().out_edges(node)) == 1

    def test_cycle_of_one_is_self_loop(self):
        g = G.cycle_graph(1)
        (edge,) = g.directed_edges
        assert g.source(edge) == g.target(edge)

    def test_grid(self):
        g = G.grid_graph(3, 2)
        assert g.num_nodes == 6
        # right edges: 2 per row x 2 rows; down edges: 3
        assert g.num_directed_edges == 2 * 2 + 3

    def test_complete(self):
        g = G.complete_graph(4)
        assert g.num_directed_edges == 12

    def test_ladder(self):
        g = G.ladder_graph(2)
        assert g.num_nodes == 6
        assert g.num_directed_edges == 2 * 2 + 2 * 2


class TestRandomGenerators:
    def test_deterministic_given_seed(self):
        a = G.random_multigraph(6, 10, 2, seed=42)
        b = G.random_multigraph(6, 10, 2, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = G.random_multigraph(6, 10, seed=1)
        b = G.random_multigraph(6, 10, seed=2)
        assert a != b

    def test_sizes_respected(self):
        g = G.random_multigraph(5, 7, 3, seed=0)
        assert g.num_nodes == 5
        assert g.num_directed_edges == 7
        assert g.num_undirected_edges == 3

    def test_labeled_digraph_has_only_directed_edges(self):
        g = G.random_labeled_digraph(5, 9, seed=0)
        assert g.num_undirected_edges == 0
        for edge in g.directed_edges:
            assert g.labels(edge)


class TestDomainGenerators:
    def test_social_network_shape(self):
        g = G.social_network(num_people=10, num_cities=2, seed=1)
        assert len(g.nodes_with_label("Person")) == 10
        assert len(g.nodes_with_label("City")) == 2
        assert g.directed_edges_with_label("lives_in")
        assert g.directed_edges_with_label("knows")
        assert g.undirected_edges_with_label("married")

    def test_transport_network_shape(self):
        g = G.transport_network(lines=2, stops_per_line=3, seed=0)
        assert len(g.nodes_with_label("Hub")) == 1
        assert len(g.nodes_with_label("Station")) == 1 + 2 * 3
        # every link is bidirectional (two directed edges)
        assert g.num_directed_edges == 2 * 2 * 3

    def test_theorem13_gadget(self):
        g = G.theorem13_gadget()
        assert g.num_nodes == 2
        assert g.num_directed_edges == 4
        for node in g.nodes:
            assert len(g.snapshot().out_edges(node)) == 2

    def test_section7_counterexample(self):
        g = G.section7_counterexample()
        assert g.num_nodes == 3
        assert g.num_directed_edges == 3
        assert len(g.directed_edges_with_label("a")) == 1

    def test_two_cliques_bridge(self):
        g = G.two_cliques_bridge(3)
        assert g.num_nodes == 6
        assert len(g.directed_edges_with_label("bridge")) == 1


class TestStatistics:
    def test_statistics_on_mixed_graph(self, mixed_graph):
        stats = compute_statistics(mixed_graph)
        assert stats.num_nodes == 3
        assert stats.num_directed_edges == 3
        assert stats.num_undirected_edges == 2
        assert stats.num_edges == 5
        assert stats.num_directed_self_loops == 1
        assert stats.num_undirected_self_loops == 1
        assert stats.max_degree >= stats.min_degree
        assert stats.label_histogram["a"] == 2

    def test_a_snapshot_has_the_statistics_of_its_graph(self):
        # Self-loops both ways, properties on nodes and on edges; then
        # writes, so the next snapshot is derived from the first.
        g = (
            GraphBuilder()
            .node("u", "N", k=1)
            .node("v", "N", w=2)
            .edge("u", "v", "a", key="d1", since=3)
            .edge("u", "u", "loop", key="d2")
            .undirected("v", "v", "b", key="u1", weight=1)
            .undirected("u", "v", "b", key="u2")
            .build()
        )
        base = g.snapshot()
        stats = compute_statistics(g)
        assert stats == compute_statistics(base)
        assert (stats.num_property_keys, stats.num_labels) == (4, 4)
        assert (stats.num_directed_self_loops, stats.num_undirected_self_loops) == (1, 1)
        assert stats.label_histogram == {"N": 2, "a": 1, "loop": 1, "b": 2}
        g.add_node("x", ["N", "a"], {"z": 0})
        g.add_undirected_edge("u3", NodeId("x"), NodeId("x"), ["b"])
        g.remove_edge(DirectedEdgeId("d2"))
        g.remove_property(DirectedEdgeId("d1"), "since")
        derived = g.snapshot()
        assert derived._core is base._core
        stats = compute_statistics(g)
        assert stats == compute_statistics(derived)
        assert stats == compute_statistics(g.copy().snapshot())
        assert (stats.num_property_keys, stats.num_labels) == (4, 3)
        assert (stats.num_directed_self_loops, stats.num_undirected_self_loops) == (0, 2)
        assert stats.label_histogram == {"N": 3, "a": 2, "b": 3}

    def test_statistics_on_empty_graph(self, empty_graph):
        stats = compute_statistics(empty_graph)
        assert stats.num_nodes == 0
        assert stats.max_degree == 0
