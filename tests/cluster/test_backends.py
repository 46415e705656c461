"""Executor backends: outcome alignment, failure capture, snapshot
shipping, plan-cache warmth."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ProcessBackend,
    SerialBackend,
    ShardCall,
    ThreadBackend,
    make_backend,
)
from repro.cluster.stats import ClusterStats
from repro.gpc.engine import DEFAULT_CONFIG, EngineConfig, Evaluator
from repro.gpc.parser import parse_query, query_shape
from repro.graph.generators import cycle_graph, social_network

QUERY = "TRAIL (x:Person) -[e:knows]-> (y:Person)"


@pytest.fixture(scope="module")
def snap():
    return social_network(num_people=10, friend_degree=2, seed=2).snapshot()


def _calls(snap, query=QUERY, config=DEFAULT_CONFIG, parts=3):
    nodes = sorted(snap.nodes)
    return [
        ShardCall(query, config, frozenset(nodes[i::parts]))
        for i in range(parts)
    ]


@pytest.fixture(
    params=["serial", "thread", "process"],
)
def backend(request):
    made = make_backend(request.param, 2, ClusterStats())
    yield made
    made.close()


class TestAllBackends:
    def test_outcomes_align_with_calls(self, snap, backend):
        calls = _calls(snap)
        outcomes = backend.run(snap, calls)
        assert len(outcomes) == len(calls)
        reference = Evaluator(snap).evaluate(parse_query(QUERY))
        merged = frozenset().union(*(o.result for o in outcomes))
        assert merged == reference
        for call, outcome in zip(calls, outcomes):
            assert outcome.ok
            assert outcome.elapsed_s >= 0.0
            assert all(
                answer.paths[0].src in call.restriction
                for answer in outcome.result
            )

    def test_failures_are_captured_not_raised(self, snap, backend):
        # A 1-entry intermediate-result budget fails evaluation inside
        # the worker; the sibling shard with a sane config succeeds.
        tiny = EngineConfig(max_intermediate_results=1)
        nodes = frozenset(snap.nodes)
        calls = [
            ShardCall(QUERY, tiny, nodes),
            ShardCall(QUERY, DEFAULT_CONFIG, nodes),
        ]
        outcomes = backend.run(snap, calls)
        assert not outcomes[0].ok and outcomes[0].result is None
        assert "intermediate result" in str(outcomes[0].error)
        assert outcomes[1].ok
        assert outcomes[1].result == Evaluator(snap).evaluate(
            parse_query(QUERY)
        )

    def test_empty_restriction_is_empty_answer_set(self, snap, backend):
        (outcome,) = backend.run(
            snap, [ShardCall(QUERY, DEFAULT_CONFIG, frozenset())]
        )
        assert outcome.ok and outcome.result == frozenset()


class TestSerialPlanCache:
    def test_prepared_query_reused_across_runs(self, snap):
        backend = SerialBackend()
        backend.run(snap, _calls(snap))
        backend.run(snap, _calls(snap))
        assert len(backend._plans) == 1  # one (query, config) pair

    def test_plan_cache_is_bounded(self, snap):
        from repro.cluster.backends import PLAN_CACHE_CAPACITY, ShardCall

        backend = SerialBackend()
        # Distinct (absent) labels: cheap to compile, empty to evaluate.
        queries = [
            f"TRAIL (x:Ghost{i}) -> (y)"
            for i in range(PLAN_CACHE_CAPACITY + 20)
        ]
        backend.run(
            snap,
            [ShardCall(q, DEFAULT_CONFIG, frozenset()) for q in queries],
        )
        assert len(backend._plans) == PLAN_CACHE_CAPACITY
        # The most recent plan survived eviction (keyed by its shape).
        assert (query_shape(queries[-1])[0], DEFAULT_CONFIG) in backend._plans


class TestProcessShipping:
    def test_snapshot_ships_once_per_version(self):
        graph = cycle_graph(6, node_label="N")
        stats = ClusterStats()
        backend = ProcessBackend(max_workers=2, stats=stats)
        try:
            snap = graph.snapshot()
            calls = [
                ShardCall("TRAIL (x:N) -> (y)", DEFAULT_CONFIG, None)
            ]
            for _ in range(3):
                outcomes = backend.run(snap, calls)
                assert outcomes[0].ok
            assert stats.snapshots_shipped == 1
            assert backend.pool_version == snap.version

            graph.add_node("extra", ["N"])
            fresh = graph.snapshot()
            outcomes = backend.run(fresh, calls)
            assert outcomes[0].ok
            assert stats.snapshots_shipped == 2
            assert backend.pool_version == fresh.version
            # The new version's answers include the new node's trails.
            assert outcomes[0].result == Evaluator(fresh).evaluate(
                parse_query("TRAIL (x:N) -> (y)")
            )
        finally:
            backend.close()

    def test_different_graphs_at_equal_versions_are_not_confused(self):
        """Regression: the warm-pool cache must key on snapshot
        identity, not the bare version number — two graphs are both at
        version 0 here."""
        a = cycle_graph(4, node_label="A")
        b = cycle_graph(4, node_label="B")
        assert a.version == b.version  # same mutation count, other graph
        backend = ProcessBackend(max_workers=2)
        try:
            call_b = [ShardCall("TRAIL (x:B) -> (y)", DEFAULT_CONFIG, None)]
            (out_a,) = backend.run(
                a.snapshot(),
                [ShardCall("TRAIL (x:A) -> (y)", DEFAULT_CONFIG, None)],
            )
            (out_b,) = backend.run(b.snapshot(), call_b)
            assert len(out_a.result) == 4
            assert len(out_b.result) == 4  # B's labels, not A's graph
            # The decisive check: evaluating the A-labelled query on
            # B's snapshot finds nothing (and vice versa would too).
            (cross,) = backend.run(
                b.snapshot(),
                [ShardCall("TRAIL (x:A) -> (y)", DEFAULT_CONFIG, None)],
            )
            assert cross.result == frozenset()
        finally:
            backend.close()

    def test_unchanged_graph_reuses_the_warm_pool(self):
        graph = cycle_graph(4, node_label="N")
        backend = ProcessBackend(max_workers=2)
        try:
            calls = [ShardCall("TRAIL (x:N) -> (y)", DEFAULT_CONFIG, None)]
            backend.run(graph.snapshot(), calls)
            executor = backend._executor
            backend.run(graph.snapshot(), calls)  # memoised snapshot
            assert backend._executor is executor
        finally:
            backend.close()

    def test_worker_tags_are_pids(self):
        snap = cycle_graph(4).snapshot()
        backend = ProcessBackend(max_workers=2)
        try:
            outcomes = backend.run(
                snap, [ShardCall("TRAIL ->", DEFAULT_CONFIG, None)] * 2
            )
            assert all(o.worker.startswith("pid-") for o in outcomes)
        finally:
            backend.close()


class TestMakeBackend:
    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert make_backend(backend, 4) is backend

    def test_injected_process_backend_adopts_stats(self):
        """Regression: a user-built ProcessBackend must report
        snapshot ships into the owning cluster's stats."""
        from repro.cluster import ClusterService

        backend = ProcessBackend(max_workers=2)
        with ClusterService(
            cycle_graph(4, node_label="N"), backend=backend
        ) as cluster:
            cluster.evaluate("SHORTEST (x:N) ->{1,} (y:N)")
            assert cluster.stats.snapshots_shipped == 1

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum", 4)

    def test_names(self):
        assert SerialBackend().name == "serial"
        assert ThreadBackend(1).name == "thread"
        assert ProcessBackend(1).name == "process"
