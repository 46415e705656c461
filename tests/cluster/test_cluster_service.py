"""ClusterService: GraphService parity, merge losslessness, failure
surfacing, stats, mutation-driven re-sharding."""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterService, SeedPartitioner, SerialBackend
from repro.errors import ClusterError, GPCTypeError, ParseError
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_query
from repro.graph.builder import GraphBuilder
from repro.graph.generators import social_network
from repro.graph.ids import NodeId
from repro.graph.property_graph import PropertyGraph
from repro.service import GraphService

QUERIES = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "SIMPLE (x:Person) ~[:married]~ (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "SHORTEST TRAIL (x) -> () -> (y)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), TRAIL (y:Person) -[:lives_in]-> (c:City)",
]


def _graph():
    return social_network(num_people=14, friend_degree=2, seed=9)


@pytest.fixture(scope="module")
def reference():
    graph = _graph()
    return {
        text: Evaluator(graph).evaluate(parse_query(text))
        for text in QUERIES
    }


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_answers_identical_across_backends(self, backend, reference):
        with ClusterService(
            _graph(), backend=backend, num_workers=2
        ) as cluster:
            for text in QUERIES:
                assert cluster.evaluate(text) == reference[text]

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_shard_count_never_changes_answers(self, workers, reference):
        with ClusterService(
            _graph(), backend="serial", num_workers=workers
        ) as cluster:
            for text in QUERIES:
                assert cluster.evaluate(text) == reference[text]

    def test_matches_graph_service_surface(self, reference):
        service = GraphService(_graph())
        with ClusterService(_graph(), backend="serial") as cluster:
            for text in QUERIES:
                assert cluster.evaluate(text) == service.evaluate(text)
            assert cluster.evaluate_batch(QUERIES) == (
                service.evaluate_batch(QUERIES)
            )
        service.close()

    def test_ast_queries_accepted(self, reference):
        with ClusterService(_graph(), backend="serial") as cluster:
            query = parse_query(QUERIES[0])
            assert cluster.evaluate(query) == reference[QUERIES[0]]

    def test_empty_graph(self):
        with ClusterService(PropertyGraph(), backend="serial") as cluster:
            assert cluster.evaluate("TRAIL (x) -> (y)") == frozenset()


class TestBatch:
    def test_order_preserved(self, reference):
        with ClusterService(_graph(), backend="serial") as cluster:
            batch = cluster.evaluate_batch(list(reversed(QUERIES)))
            assert batch == [reference[t] for t in reversed(QUERIES)]

    def test_empty_batch(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            assert cluster.evaluate_batch([]) == []

    def test_prepare_failure_keeps_siblings(self, reference):
        workload = [QUERIES[0], "TRAIL (x", QUERIES[1]]
        with ClusterService(_graph(), backend="serial") as cluster:
            results = cluster.evaluate_batch(
                workload, return_exceptions=True
            )
            assert results[0] == reference[QUERIES[0]]
            assert isinstance(results[1], ParseError)
            assert results[2] == reference[QUERIES[1]]
            # Default mode raises the failure — after siblings finished.
            with pytest.raises(ParseError):
                cluster.evaluate_batch(workload)
            # The parse-failing query never evaluated: only the two
            # siblings count per round (same accounting as evaluate,
            # which raises before recording).
            assert cluster.stats.queries == 2 * 2


class TestResultCache:
    """Surface parity with GraphService: (query, config, version)
    keyed result cache with use_cache bypass."""

    def test_hit_on_repeat_returns_same_frozenset(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            first = cluster.evaluate(QUERIES[0])
            second = cluster.evaluate(QUERIES[0])
            assert second is first  # the cached frozenset itself
            assert cluster.stats.result_cache.hits == 1
            assert cluster.stats.result_cache.misses == 1

    def test_mutation_invalidates(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            before = cluster.evaluate(QUERIES[2])
            cluster.remove_edge(next(cluster.graph.iter_directed_edges()))
            after = cluster.evaluate(QUERIES[2])
            assert after != before
            assert after == Evaluator(cluster.graph).evaluate(
                parse_query(QUERIES[2])
            )
            assert cluster.stats.result_cache.hits == 0
            assert cluster.stats.result_cache.invalidations == 1

    def test_removal_refilters(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            before = cluster.evaluate(QUERIES[0])
            cluster.remove_edge(next(cluster.graph.iter_directed_edges()))
            after = cluster.evaluate(QUERIES[0])
            assert after < before
            assert after == Evaluator(cluster.graph).evaluate(
                parse_query(QUERIES[0])
            )
            cache = cluster.stats.result_cache
            assert (cache.hits, cache.refilters, cache.invalidations) == (1, 1, 0)

    def test_addition_extends_with_one_shard_call_over_its_seeds(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            people = sorted(cluster.graph.nodes_with_label("Person"))
            cities = sorted(cluster.graph.nodes_with_label("City"))
            for text in (QUERIES[0], QUERIES[4]):
                before = cluster.evaluate(text)
                scatters = cluster.stats.scatters
                cluster.add_edge(f"p-{text}", people[1], people[0], ["knows"])
                after = cluster.evaluate(text)
                assert after > before
                assert after == Evaluator(cluster.graph).evaluate(parse_query(text))
                assert cluster.stats.scatters == scatters + 1
                # City ends: the one call over them finds no Person
                # start, and the kept answers serve.
                cluster.add_edge(f"c-{text}", cities[0], cities[1], ["knows"])
                assert cluster.evaluate(text) == after
                assert cluster.stats.scatters == scatters + 2
                # An edge whose ends are removed again leaves no seed:
                # the backend is not called.
                ends = [NodeId(f"{end}-{text}") for end in "st"]
                for end in ends:
                    cluster.add_node(end.key, ["Person"])
                cluster.add_edge(f"n-{text}", *ends, ["knows"])
                for end in ends:
                    cluster.remove_node(end)
                assert cluster.evaluate(text) == after
                assert cluster.stats.scatters == scatters + 2
            assert cluster.stats.result_cache.extends == 6

    def test_use_cache_false_recomputes(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            first = cluster.evaluate(QUERIES[0], use_cache=False)
            second = cluster.evaluate(QUERIES[0], use_cache=False)
            assert first == second and first is not second
            assert cluster.stats.result_cache.hits == 0
            assert cluster.stats.result_cache.bypasses == 2

    def test_batch_populates_and_hits_cache(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            batch = cluster.evaluate_batch(QUERIES[:2])
            assert cluster.evaluate(QUERIES[0]) is batch[0]
            repeat = cluster.evaluate_batch(QUERIES[:2])
            assert repeat == batch
            # Second batch round was served entirely from cache.
            assert cluster.stats.result_cache.hits >= 2


class TestFailureSurfacing:
    def test_shard_failure_raises_cluster_error(self):
        tiny = EngineConfig(max_intermediate_results=1)
        with ClusterService(
            _graph(), tiny, backend="serial", num_workers=3
        ) as cluster:
            with pytest.raises(ClusterError) as excinfo:
                cluster.evaluate(QUERIES[0])
        error = excinfo.value
        assert error.failures, "failures must carry per-shard context"
        for failure in error.failures:
            assert "intermediate result" in str(failure.error)
            assert failure.describe()
        assert error.__cause__ is error.failures[0].error
        assert cluster.stats.shard_failures == len(error.failures)
        # The failed query is still counted and timed — error rates
        # derived from queries/shard_failures must stay honest.
        assert cluster.stats.queries == 1
        assert cluster.stats.latency.count == 1

    def test_a_deadline_in_every_failed_shard_is_a_timeout_not_a_cluster_error(self):
        from repro.cluster import ShardFailure
        from repro.cluster.service import _failure_error
        from repro.errors import DeadlineExceededError, EvaluationLimitError

        late = [
            ShardFailure(index, "w", DeadlineExceededError("request deadline exceeded"))
            for index in range(2)
        ]
        error = _failure_error(late)
        assert isinstance(error, DeadlineExceededError)
        assert error.__cause__ is late[0].error
        assert "2 shard(s) failed" in str(error)
        # One shard that failed for another reason: the cluster failed.
        mixed = [*late, ShardFailure(2, "w", EvaluationLimitError("too many"))]
        error = _failure_error(mixed)
        assert isinstance(error, ClusterError) and len(error.failures) == 3

    def test_prepare_errors_propagate_directly(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            with pytest.raises(GPCTypeError):
                cluster.evaluate("TRAIL [ -[e]->{1,3} ] << e.k = 1 >>")


class TestMutationAndVersions:
    def test_mutations_reshard_and_refresh(self):
        graph = (
            GraphBuilder()
            .node("a", "P").node("b", "P")
            .edge("a", "b", "r")
            .build()
        )
        with ClusterService(graph, backend="serial", num_workers=2) as cluster:
            before = cluster.evaluate("TRAIL (x:P) -[:r]-> (y:P)")
            assert len(before) == 1
            version = cluster.version
            c = cluster.add_node("c", ["P"])
            cluster.add_edge("e2", c, next(iter(graph.nodes_with_label("P"))), ["r"])
            assert cluster.version > version
            after = cluster.evaluate("TRAIL (x:P) -[:r]-> (y:P)")
            assert after == Evaluator(cluster.graph).evaluate(
                parse_query("TRAIL (x:P) -[:r]-> (y:P)")
            )
            assert len(after) == 2
            edge = next(cluster.graph.iter_directed_edges())
            cluster.remove_edge(edge)
            assert cluster.evaluate("TRAIL (x:P) -[:r]-> (y:P)") == (
                Evaluator(cluster.graph).evaluate(
                    parse_query("TRAIL (x:P) -[:r]-> (y:P)")
                )
            )

    def test_process_backend_delta_ships_on_small_mutation(self):
        """A one-op mutation no longer rebuilds the worker pool: the
        delta chain ships with the calls and warm workers derive the
        new snapshot in place (the full snapshot shipped only once)."""
        with ClusterService(
            _graph(), backend="process", num_workers=2
        ) as cluster:
            cluster.evaluate(QUERIES[0])
            cluster.evaluate(QUERIES[1])
            assert cluster.stats.snapshots_shipped == 1
            # Touch the footprint of QUERIES[0] so the cached result is
            # invalidated and the shards genuinely re-run.
            people = sorted(cluster.graph.nodes_with_label("Person"))
            cluster.add_node("fresh", ["Person"])
            cluster.add_edge(
                "efresh",
                people[0],
                next(iter(cluster.graph.nodes_with_label("Person"))),
                ["knows"],
            )
            after = cluster.evaluate(QUERIES[0])
            assert cluster.stats.snapshots_shipped == 1
            assert cluster.stats.deltas_shipped == 1
            assert after == Evaluator(cluster.graph).evaluate(
                parse_query(QUERIES[0])
            )


class TestStatsAndExplain:
    def test_stats_accumulate(self):
        with ClusterService(
            _graph(), backend="serial", num_workers=3
        ) as cluster:
            cluster.evaluate(QUERIES[0], use_cache=False)
            cluster.evaluate_batch(QUERIES[:2], use_cache=False)
            stats = cluster.stats
            assert stats.queries == 3
            assert stats.batches == 1
            assert stats.scatters >= 3
            assert stats.latency.count == 3  # one per observed query
            assert stats.shard_latency.count == stats.scatters
            assert "serial" in stats.per_worker
            assert stats.result_cache.bypasses == 3

    def test_as_dict_is_json_serialisable(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            cluster.evaluate(QUERIES[0])
            encoded = json.dumps(cluster.stats.as_dict())
            assert "per_worker" in encoded and "shard_latency" in encoded

    def test_plan_cache_memoises(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            first = cluster.prepare(QUERIES[0])
            assert cluster.prepare(QUERIES[0]).plan is first.plan
            assert cluster.stats.plan_cache.hits == 1

    def test_explain_includes_cluster_line(self):
        with ClusterService(
            _graph(), backend="serial", num_workers=2
        ) as cluster:
            text = cluster.explain(QUERIES[2])
            assert "plan:" in text
            assert "cluster: backend=serial" in text
            assert "shard" in text

    def test_repr(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            assert "backend=serial" in repr(cluster)


class TestCustomInjection:
    def test_custom_backend_and_partitioner(self, reference):
        backend = SerialBackend()
        partitioner = SeedPartitioner(7)
        with ClusterService(
            _graph(), backend=backend, partitioner=partitioner
        ) as cluster:
            assert cluster.backend is backend
            assert cluster.partitioner is partitioner
            assert cluster.evaluate(QUERIES[0]) == reference[QUERIES[0]]

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            ClusterService(_graph(), num_workers=0, backend="serial")


class _CountingBackend(SerialBackend):
    """A serial backend that records every ``run`` invocation."""

    def __init__(self):
        super().__init__()
        self.runs = 0
        self.call_counts: list[int] = []

    def run(self, snapshot, calls, delta_source=None):
        self.runs += 1
        self.call_counts.append(len(calls))
        return super().run(snapshot, calls, delta_source)


class TestEmptyScatter:
    """Regression: a batch whose every query cache-hits (or fails
    before scattering) produces zero shard calls — the backend must
    not be invoked at all, because on the process backend ``run``
    warms the pool and ships a snapshot even for an empty call list."""

    def test_all_hit_batch_never_invokes_backend(self):
        backend = _CountingBackend()
        with ClusterService(
            _graph(), backend=backend, num_workers=2
        ) as cluster:
            expected = [cluster.evaluate(text) for text in QUERIES[:3]]
            runs_before = backend.runs
            results = cluster.evaluate_batch(QUERIES[:3])
            assert backend.runs == runs_before, (
                "all-hit batch reached the backend"
            )
            assert results == expected
            assert cluster.stats.result_cache.hits >= 3

    def test_all_failed_prescatter_batch_never_invokes_backend(self):
        backend = _CountingBackend()
        with ClusterService(_graph(), backend=backend) as cluster:
            results = cluster.evaluate_batch(
                ["TRAIL (x", "SIMPLE )y("], return_exceptions=True
            )
            assert backend.runs == 0
            assert all(isinstance(item, Exception) for item in results)

    def test_mixed_batch_scatters_only_the_misses(self):
        backend = _CountingBackend()
        with ClusterService(
            _graph(), backend=backend, num_workers=2
        ) as cluster:
            hit = cluster.evaluate(QUERIES[0])
            runs_before = backend.runs
            results = cluster.evaluate_batch([QUERIES[0], QUERIES[1]])
            assert backend.runs == runs_before + 1
            assert results[0] == hit
            assert results[1] == cluster.evaluate(QUERIES[1])


class TestSnapshotStats:
    """Regression: ``ClusterService.snapshot()`` used to skip the
    ``snapshots_built`` / ``snapshots_derived`` accounting that
    ``GraphService.snapshot()`` performs, so cluster dashboards read 0
    forever."""

    def test_snapshot_build_and_derive_counters(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            assert cluster.stats.snapshots_built == 0
            cluster.evaluate(QUERIES[0])
            assert cluster.stats.snapshots_built == 1
            cluster.evaluate(QUERIES[1])  # same version: memoised
            assert cluster.stats.snapshots_built == 1
            cluster.add_node("fresh", ["Person"], {"name": "Fresh"})
            cluster.evaluate(QUERIES[0])
            assert cluster.stats.snapshots_built == 2
            # A one-delta advance takes the incremental derive path.
            assert cluster.stats.snapshots_derived == 1

    def test_snapshot_counters_in_as_dict(self):
        with ClusterService(_graph(), backend="serial") as cluster:
            cluster.evaluate(QUERIES[0])
            payload = cluster.stats.as_dict()
            assert payload["snapshots_built"] == 1
            assert payload["snapshots_derived"] == 0

    def test_parity_with_graph_service(self):
        service = GraphService(_graph())
        with ClusterService(_graph(), backend="serial") as cluster:
            for facade in (service, cluster):
                facade.evaluate(QUERIES[0])
                facade.add_node("fresh", ["Person"], {"name": "Fresh"})
                facade.evaluate(QUERIES[0])
            assert (
                cluster.stats.snapshots_built
                == service.stats.snapshots_built
                == 2
            )
            assert (
                cluster.stats.snapshots_derived
                == service.stats.snapshots_derived
            )
        service.close()
