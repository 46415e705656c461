"""ProcessBackend delta shipping: warm workers derive new versions
from shipped delta chains instead of receiving whole snapshots."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterService, ProcessBackend, ShardCall
from repro.cluster.stats import ClusterStats
from repro.gpc.engine import DEFAULT_CONFIG, Evaluator
from repro.gpc.parser import parse_query
from repro.graph.generators import cycle_graph, social_network
from repro.graph.property_graph import PropertyGraph

QUERY = "TRAIL (x:N) -> (y)"


class TestDeltaShipping:
    def test_small_version_step_ships_deltas_not_snapshots(self):
        graph = cycle_graph(8, node_label="N")
        stats = ClusterStats()
        backend = ProcessBackend(max_workers=2, stats=stats)
        calls = [ShardCall(QUERY, DEFAULT_CONFIG, None)]
        try:
            (first,) = backend.run(
                graph.snapshot(), calls, delta_source=graph.deltas_since
            )
            assert first.ok
            assert stats.snapshots_shipped == 1

            graph.add_node("extra", ["N"])
            nodes = sorted(graph.nodes)
            graph.add_edge("eextra", nodes[-1], nodes[0], ["link"])
            (second,) = backend.run(
                graph.snapshot(), calls, delta_source=graph.deltas_since
            )
            assert second.ok
            assert stats.snapshots_shipped == 1  # pool kept warm
            assert stats.deltas_shipped == 1
            assert backend.pool_version == graph.version
            assert second.result == Evaluator(graph).evaluate(
                parse_query(QUERY)
            )
        finally:
            backend.close()

    def test_repeated_steps_keep_delta_shipping(self):
        graph = cycle_graph(10, node_label="N")
        stats = ClusterStats()
        backend = ProcessBackend(max_workers=2, stats=stats)
        calls = [ShardCall(QUERY, DEFAULT_CONFIG, None)]
        try:
            backend.run(
                graph.snapshot(), calls, delta_source=graph.deltas_since
            )
            for i in range(3):
                graph.add_node(f"x{i}", ["N"])
                (outcome,) = backend.run(
                    graph.snapshot(), calls, delta_source=graph.deltas_since
                )
                assert outcome.ok
                assert outcome.result == Evaluator(graph).evaluate(
                    parse_query(QUERY)
                )
            assert stats.snapshots_shipped == 1
            assert stats.deltas_shipped == 3
        finally:
            backend.close()

    def test_large_step_falls_back_to_snapshot_reship(self):
        graph = cycle_graph(6, node_label="N")
        stats = ClusterStats()
        backend = ProcessBackend(max_workers=2, stats=stats)
        calls = [ShardCall(QUERY, DEFAULT_CONFIG, None)]
        try:
            backend.run(
                graph.snapshot(), calls, delta_source=graph.deltas_since
            )
            for i in range(30):  # past the graph's budget of 16 ops
                graph.add_node(f"bulk{i}", ["N"])
            (outcome,) = backend.run(
                graph.snapshot(), calls, delta_source=graph.deltas_since
            )
            assert outcome.ok
            assert stats.snapshots_shipped == 2
            assert stats.deltas_shipped == 0
            assert outcome.result == Evaluator(graph).evaluate(
                parse_query(QUERY)
            )
        finally:
            backend.close()

    def _reships(self, graph, stale, current):
        """Warm a pool on ``stale``, then run on ``current``: the pool
        must re-ship a snapshot, ship no chain, and answer exactly."""
        stats = ClusterStats()
        backend = ProcessBackend(max_workers=2, stats=stats)
        calls = [ShardCall(QUERY, DEFAULT_CONFIG, None)]
        try:
            backend.run(stale, calls, delta_source=graph.deltas_since)
            (outcome,) = backend.run(
                current, calls, delta_source=graph.deltas_since
            )
            assert outcome.ok
            assert (stats.snapshots_shipped, stats.deltas_shipped) == (2, 0)
            assert outcome.result == Evaluator(current).evaluate(
                parse_query(QUERY)
            )
        finally:
            backend.close()

    def test_a_snapshot_the_graph_rebuilt_reships(self):
        """The pool's base is itself derived (20 overlay ops on its
        core). Ten more small steps cross the graph's budget of
        max(16, 0.25 * |G|) ops on that core, so the graph rebuilds —
        although the ten-op chain from the base is well inside a
        quarter of the graph — and the pool follows it and re-ships."""
        graph = cycle_graph(40, node_label="N")
        graph.snapshot()
        for i in range(20):
            graph.add_node(f"early{i}", ["N"])
            base = graph.snapshot()
        assert base.derived and base.overlay_ops == 20
        rebuilds = graph.snapshot_rebuilds
        for i in range(10):
            graph.add_node(f"late{i}", ["N"])
            graph.snapshot()
        assert graph.snapshot_rebuilds == rebuilds + 1
        self._reships(graph, base, graph.snapshot())

    def test_a_chain_the_log_dropped_reships(self):
        graph = PropertyGraph(delta_log_capacity=4)
        for i in range(4):
            graph.add_node(f"n{i}", ["N"])
        base = graph.snapshot()
        for i in range(6):  # each step derived; the log keeps 4
            graph.add_node(f"late{i}", ["N"])
            graph.snapshot()
        assert graph.deltas_since(base.version) is None
        assert graph.snapshot().derived
        self._reships(graph, base, graph.snapshot())

    def test_a_reader_older_than_the_pool_reships(self):
        graph = cycle_graph(8, node_label="N")
        older = graph.snapshot()
        graph.add_node("extra", ["N"])
        newer = graph.snapshot()
        assert newer.derived
        self._reships(graph, newer, older)

    def test_without_delta_source_version_step_reships(self):
        graph = cycle_graph(6, node_label="N")
        stats = ClusterStats()
        backend = ProcessBackend(max_workers=2, stats=stats)
        calls = [ShardCall(QUERY, DEFAULT_CONFIG, None)]
        try:
            backend.run(graph.snapshot(), calls)
            graph.add_node("extra", ["N"])
            backend.run(graph.snapshot(), calls)
            assert stats.snapshots_shipped == 2
            assert stats.deltas_shipped == 0
        finally:
            backend.close()

    def test_other_graphs_deltas_never_patch_this_pool(self):
        """A backend shared across services over different graphs must
        refuse the delta path even when versions look compatible."""
        a = cycle_graph(6, node_label="A")
        b = cycle_graph(6, node_label="B")
        for i in range(3):
            b.add_node(f"extra{i}", ["B"])  # push b's version past a's
        stats = ClusterStats()
        backend = ProcessBackend(max_workers=2, stats=stats)
        try:
            backend.run(
                a.snapshot(),
                [ShardCall("TRAIL (x:A) -> (y)", DEFAULT_CONFIG, None)],
                delta_source=a.deltas_since,
            )
            (outcome,) = backend.run(
                b.snapshot(),
                [ShardCall("TRAIL (x:B) -> (y)", DEFAULT_CONFIG, None)],
                delta_source=b.deltas_since,
            )
            assert outcome.ok
            assert stats.deltas_shipped == 0
            assert stats.snapshots_shipped == 2
            assert outcome.result == Evaluator(b).evaluate(
                parse_query("TRAIL (x:B) -> (y)")
            )
        finally:
            backend.close()


class TestClusterServiceMutationHeavy:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mixed_mutation_query_stream_stays_exact(self, backend):
        """Interleaved mutations and queries: every answer matches a
        one-shot evaluation of the current graph, whatever mix of
        caching, delta shipping and derivation served it."""
        graph = social_network(num_people=12, friend_degree=2, seed=5)
        text = "TRAIL (x:Person) -[e:knows]-> (y:Person)"
        with ClusterService(
            graph, backend=backend, num_workers=2
        ) as cluster:
            for i in range(6):
                result = cluster.evaluate(text)
                assert result == Evaluator(graph).evaluate(parse_query(text))
                people = sorted(graph.nodes_with_label("Person"))
                if i % 2:
                    cluster.add_node(f"p-new{i}", ["Person"])
                    cluster.add_edge(
                        f"k-new{i}", people[0], people[-1], ["knows"]
                    )
                else:
                    cluster.add_node(f"c-new{i}", ["City"])

    def test_cluster_cache_survives_disjoint_mutations(self):
        graph = social_network(num_people=12, friend_degree=2, seed=5)
        text = "TRAIL (x:Person) -[e:knows]-> (y:Person)"
        with ClusterService(
            graph, backend="serial", num_workers=2
        ) as cluster:
            first = cluster.evaluate(text)
            for i in range(4):
                cluster.add_node(f"station{i}", ["Station"])
            assert cluster.evaluate(text) is first
            assert cluster.stats.result_cache.restamps == 1
