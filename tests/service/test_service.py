"""The query-service runtime: caching, invalidation, batching."""

from __future__ import annotations

import contextvars
import threading

import pytest

from repro.errors import GPCError, GPCTypeError
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_query, parse_shape
from repro.graph.builder import GraphBuilder
from repro.graph.generators import cycle_graph
from repro.obs import query_fingerprint
from repro.service import GraphService, LRUCache, PreparedQuery

QUERIES = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "SIMPLE (x) ->{1,} (y)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "p = TRAIL [ (x:Person) -[e:knows]->{1,} (y:Person) ] << x.team = y.team >>",
    "TRAIL (x) ~[:married]~ (y)",
]


@pytest.fixture
def social() -> GraphService:
    graph = (
        GraphBuilder()
        .node("ann", "Person", name="Ann", team="db")
        .node("bob", "Person", name="Bob", team="db")
        .node("cia", "Person", name="Cia", team="ml")
        .node("dan", "Person", name="Dan", team="ml")
        .edge("ann", "bob", "knows", since=2015)
        .edge("bob", "cia", "knows", since=2018)
        .edge("cia", "dan", "knows", since=2020)
        .edge("dan", "ann", "knows", since=2021)
        .undirected("ann", "cia", "married")
        .build()
    )
    return GraphService(graph)


def _add_knows(service):
    service.add_edge(
        "extra", *sorted(service.graph.nodes_with_label("Person"))[:2], ["knows"]
    )


class TestPreparedQueries:
    @pytest.mark.parametrize("text", QUERIES)
    def test_prepared_equals_one_shot(self, social, text):
        prepared = PreparedQuery(text)
        one_shot = Evaluator(social.graph).evaluate(parse_query(text))
        assert prepared.execute(social.graph) == one_shot

    @pytest.mark.parametrize("text", QUERIES)
    def test_prepared_reexecution_is_stable(self, social, text):
        prepared = PreparedQuery(text)
        first = prepared.execute(social.graph)
        assert prepared.execute(social.graph) == first
        assert prepared.execute(social.graph.snapshot()) == first

    def test_prepared_tracks_graph_versions(self, social):
        prepared = PreparedQuery(QUERIES[0])
        before = prepared.execute(social.graph)
        eve = social.add_node("eve", ["Person"], {"name": "Eve", "team": "db"})
        social.add_edge(
            "e5", eve, next(iter(social.graph.nodes_with_label("Person"))),
            ["knows"],
        )
        after = prepared.execute(social.graph)
        assert len(after) == len(before) + 1

    def test_prepared_executes_across_graphs(self):
        prepared = PreparedQuery("SHORTEST (x) ->{1,} (y)")
        for size in (3, 4, 5):
            graph = cycle_graph(size)
            assert prepared.execute(graph) == Evaluator(graph).evaluate(
                parse_query("SHORTEST (x) ->{1,} (y)")
            )

    def test_prepared_typechecks_at_construction(self):
        # A group variable used as a singleton in a condition is a type
        # error the paper's Figure 2 rules reject; prepare() must too.
        with pytest.raises(GPCTypeError):
            PreparedQuery("TRAIL [ -[e]->{1,3} ] << e.k = 1 >>")

    def test_ast_queries_accepted(self, social):
        query = parse_query(QUERIES[0])
        prepared = PreparedQuery(query)
        assert prepared.execute(social.graph) == social.evaluate(query)


class TestResultCache:
    def test_hit_on_repeat(self, social):
        first = social.evaluate(QUERIES[0])
        second = social.evaluate(QUERIES[0])
        assert first == second
        assert social.stats.result_cache.hits == 1
        assert social.stats.result_cache.misses == 1

    def test_identical_results_are_shared(self, social):
        first = social.evaluate(QUERIES[2])
        second = social.evaluate(QUERIES[2])
        assert first is second  # the cached frozenset itself

    @pytest.mark.parametrize(
        "text, mutate",
        [
            (QUERIES[3], _add_knows),
            (QUERIES[2], lambda s: s.remove_edge(next(s.graph.iter_directed_edges()))),
            (QUERIES[2], lambda s: s.remove_node(next(s.graph.iter_nodes()))),
        ],
        ids=["add_edge", "shortest_remove_edge", "shortest_remove_node"],
    )
    def test_footprint_intersecting_mutation_invalidates(
        self, social, text, mutate
    ):
        """QUERIES[3] and the SHORTEST QUERIES[2] read `knows` directed
        edges; an added one must invalidate the entry of QUERIES[3],
        whose paths have no length bound to seed an extension from, and
        so must a removal under SHORTEST (a longer path may become
        shortest): both recompute under the bumped version."""
        social.evaluate(text)
        version = social.version
        mutate(social)
        assert social.version > version
        after = social.evaluate(text)
        assert social.stats.result_cache.misses == 2
        assert social.stats.result_cache.hits == 0
        assert social.stats.result_cache.invalidations == 1
        assert social.stats.result_cache.refilters == 0
        assert after == Evaluator(social.graph).evaluate(parse_query(text))

    def test_footprint_intersecting_addition_extends(self, social):
        """An added `knows` edge keeps QUERIES[0]'s entry: the cached
        answers plus those from the new edge's endpoints are served — a
        hit — and equal a fresh evaluation of the mutated graph."""
        before = social.evaluate(QUERIES[0])
        _add_knows(social)
        after = social.evaluate(QUERIES[0])
        assert after > before
        cache = social.stats.result_cache
        assert (cache.hits, cache.misses) == (1, 1)
        assert (cache.extends, cache.invalidations) == (1, 0)
        assert after == Evaluator(social.graph).evaluate(parse_query(QUERIES[0]))
        assert social.evaluate(QUERIES[0]) is after  # an exact hit now

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.remove_edge(next(s.graph.iter_directed_edges())),
            lambda s: s.remove_node(next(s.graph.iter_nodes())),
        ],
        ids=["remove_edge", "remove_node"],
    )
    def test_footprint_intersecting_removal_refilters(self, social, mutate):
        """A removal touching QUERIES[0]'s `knows` edges keeps its
        entry: the cached answers whose paths avoid the removed ids are
        served — a hit — and equal a fresh evaluation of the mutated
        graph."""
        before = social.evaluate(QUERIES[0])
        mutate(social)
        after = social.evaluate(QUERIES[0])
        assert after < before
        cache = social.stats.result_cache
        assert (cache.hits, cache.misses) == (1, 1)
        assert (cache.refilters, cache.invalidations) == (1, 0)
        assert after == Evaluator(social.graph).evaluate(
            parse_query(QUERIES[0])
        )
        assert social.evaluate(QUERIES[0]) is after  # an exact hit now

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.add_node("zed", ["Person"], {"team": "db"}),
            lambda s: s.set_property(
                next(iter(s.graph.nodes_with_label("Person"))), "age", 30
            ),
            lambda s: s.remove_undirected_edge(
                next(s.graph.iter_undirected_edges())
            ),
        ],
        ids=["add_isolated_node", "set_unread_property",
             "remove_undirected_edge"],
    )
    def test_footprint_disjoint_mutation_restamps(self, social, mutate):
        """Mutations provably outside QUERIES[0]'s read footprint (an
        isolated node, an unread property key, an undirected edge) keep
        the cached entry alive: it is re-stamped to the new version and
        served as a hit — and the served answers still equal a fresh
        one-shot evaluation of the mutated graph."""
        before = social.evaluate(QUERIES[0])
        version = social.version
        mutate(social)
        assert social.version > version
        after = social.evaluate(QUERIES[0])
        assert after is before  # the cached frozenset itself
        assert social.stats.result_cache.hits == 1
        assert social.stats.result_cache.misses == 1
        assert social.stats.result_cache.restamps == 1
        assert after == Evaluator(social.graph).evaluate(
            parse_query(QUERIES[0])
        )

    def test_stale_entries_never_served(self, social):
        q = QUERIES[0]
        before = social.evaluate(q)
        edge = next(social.graph.iter_directed_edges())
        social.remove_edge(edge)
        after = social.evaluate(q)
        assert after != before
        assert after == Evaluator(social.graph).evaluate(parse_query(q))

    def test_results_equal_one_shot_per_version(self, social):
        for text in QUERIES:
            assert social.evaluate(text) == Evaluator(social.graph).evaluate(
                parse_query(text)
            )
        social.remove_node(next(social.graph.iter_nodes()))
        for text in QUERIES:
            assert social.evaluate(text) == Evaluator(social.graph).evaluate(
                parse_query(text)
            )

    def test_use_cache_false_recomputes(self, social):
        first = social.evaluate(QUERIES[0], use_cache=False)
        second = social.evaluate(QUERIES[0], use_cache=False)
        assert first == second and first is not second
        assert social.stats.result_cache.hits == 0

    def test_config_is_part_of_the_key(self, social):
        loose = EngineConfig(automaton_state_limit=50_000)
        social.evaluate(QUERIES[0])
        social.evaluate(QUERIES[0], config=loose)
        assert social.stats.result_cache.misses == 2


class TestOneParse:
    def test_one_parse_per_shape(self, social, monkeypatch):
        """A cold evaluate parses its text once; a text of the same shape
        is bound to that plan and parses nothing. The insights
        fingerprint is the shape's, taken when its plan was built."""
        from repro.gpc import parser
        from repro.service import prepared

        parses = []

        def counting(parse):
            def parse_counted(text):
                parses.append(text)
                return parse(text)

            return parse_counted

        monkeypatch.setattr(parser, "parse_query", counting(parse_query))
        monkeypatch.setattr(prepared, "parse_query", counting(parse_query))
        monkeypatch.setattr(prepared, "parse_shape", counting(parse_shape))
        text = "TRAIL [(x:Person) -[e:knows]-> (y:Person)] << x.team = 'db' >>"
        social.evaluate(text)
        assert parses == [text]
        social.evaluate(text)  # a hit: no plan
        social.evaluate(text.replace("db", "ml"))  # the same shape: bound
        assert parses == [text]
        [insight] = social.insights.top()
        assert insight["calls"] == 3
        assert (insight["fingerprint"], insight["query"]) == query_fingerprint(
            parse_query(text)
        )


class TestPlanCache:
    def test_prepare_is_memoised(self, social):
        first = social.prepare(QUERIES[0])
        second = social.prepare(QUERIES[0])
        assert second.plan is first.plan  # one shape plan, bound per call
        assert social.stats.plan_cache.hits == 1

    def test_plan_survives_mutations(self, social):
        plan = social.prepare(QUERIES[2]).plan
        social.add_node("new", ["Person"], {"team": "db"})
        assert social.prepare(QUERIES[2]).plan is plan  # plans are version-free

    def test_eviction_is_counted(self):
        service = GraphService(cycle_graph(3), plan_cache_size=2)
        # Four texts, three shapes: the first two differ in a constant.
        texts = ["TRAIL (x) << x.k = 1 >>", "TRAIL (x) << x.k = 2 >>"]
        for text in texts + ["SIMPLE ->", "TRAIL ->{1,2}"]:
            service.prepare(text)
        assert service.stats.plan_cache.misses == 3
        assert service.stats.plan_cache.evictions == 1
        assert len(service._plan_cache) == 2


class TestBatchEvaluation:
    def test_batch_matches_sequential(self, social):
        batch = social.evaluate_batch(QUERIES)
        assert batch == [
            Evaluator(social.graph).evaluate(parse_query(t)) for t in QUERIES
        ]

    def test_batch_is_deterministic_across_runs(self, social):
        workload = QUERIES * 3
        runs = [social.evaluate_batch(workload, use_cache=False)
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_batch_preserves_input_order(self, social):
        workload = list(reversed(QUERIES))
        batch = social.evaluate_batch(workload)
        for text, result in zip(workload, batch):
            assert result == social.evaluate(text)

    def test_empty_batch(self, social):
        assert social.evaluate_batch([]) == []

    def test_raising_query_keeps_sibling_results(self, social):
        """Regression: one bad query must not lose its siblings."""
        workload = [QUERIES[0], "TRAIL (x", QUERIES[1]]
        results = social.evaluate_batch(workload, return_exceptions=True)
        assert results[0] == social.evaluate(QUERIES[0])
        assert isinstance(results[1], GPCError)
        assert results[2] == social.evaluate(QUERIES[1])

    def test_raising_query_raises_after_full_drain(self, social):
        workload = ["TRAIL (x", QUERIES[0], QUERIES[1]]
        with pytest.raises(GPCError):
            social.evaluate_batch(workload)
        # The siblings ran to completion despite the leading failure:
        # their stats were recorded and their results cached.
        assert social.stats.queries == 2
        social.evaluate(QUERIES[0])
        social.evaluate(QUERIES[1])
        assert social.stats.result_cache.hits == 2

    def test_exception_positions_preserve_input_order(self, social):
        workload = [QUERIES[0], "TRAIL (x", QUERIES[1], "SIMPLE )y("]
        results = social.evaluate_batch(workload, return_exceptions=True)
        assert [isinstance(r, Exception) for r in results] == (
            [False, True, False, True]
        )

    @pytest.mark.parametrize("members", [1, 3])
    def test_members_run_on_the_callers_thread_in_their_own_contexts(
        self, social, monkeypatch, members
    ):
        """No pool hop: every member executes in the calling thread, in
        its own context, its exception still its outcome."""
        marker = contextvars.ContextVar("marker", default=None)
        seen = []
        execute = PreparedQuery.execute

        def recording(prepared, snap, **kwargs):
            seen.append((threading.get_ident(), marker.get()))
            return execute(prepared, snap, **kwargs)

        monkeypatch.setattr(PreparedQuery, "execute", recording)
        contexts = [contextvars.copy_context() for _ in range(members)]
        for index, context in enumerate(contexts):
            context.run(marker.set, index)
        workload = QUERIES[:members]
        expected = [social.evaluate(text, use_cache=False) for text in workload]
        seen.clear()
        here = threading.get_ident()
        assert social.evaluate_batch(workload, use_cache=False) == expected
        assert social.evaluate_batch(
            workload, use_cache=False, contexts=contexts
        ) == expected
        assert seen == [(here, None)] * members + [
            (here, index) for index in range(members)
        ]
        [outcome] = social.evaluate_batch(["TRAIL (x"], return_exceptions=True)
        assert isinstance(outcome, GPCError)
        with pytest.raises(GPCError):
            social.evaluate_batch(["TRAIL (x"])

    def test_service_usable_after_close(self, social):
        social.evaluate_batch(QUERIES[:2])
        social.close()
        # The documented contract: close is idempotent and the
        # service keeps serving.
        social.close()
        assert social.evaluate_batch([QUERIES[0]]) == [
            social.evaluate(QUERIES[0])
        ]
        social.close()


class TestRemovalInvalidation:
    """Each remove_* delegation bumps the version, invalidates cached
    results, and forces a snapshot rebuild — symmetric with the
    add-path coverage above."""

    def _warm(self, service, text=QUERIES[0]):
        result = service.evaluate(text)
        assert service.evaluate(text) is result  # cached
        return result

    def test_remove_edge(self, social):
        before = self._warm(social)
        version = social.version
        snapshots = social.stats.snapshots_built
        social.remove_edge(next(social.graph.iter_directed_edges()))
        assert social.version == version + 1
        after = social.evaluate(QUERIES[0])
        assert after != before
        assert after == Evaluator(social.graph).evaluate(
            parse_query(QUERIES[0])
        )
        assert social.stats.snapshots_built == snapshots + 1

    def test_remove_undirected_edge(self, social):
        text = "TRAIL (x) ~[:married]~ (y)"
        before = self._warm(social, text)
        version = social.version
        social.remove_undirected_edge(
            next(social.graph.iter_undirected_edges())
        )
        assert social.version == version + 1
        after = social.evaluate(text)
        assert after != before
        assert after == Evaluator(social.graph).evaluate(parse_query(text))

    def test_remove_node_cascades(self, social):
        before = self._warm(social)
        version = social.version
        victim = next(social.graph.iter_nodes())
        social.remove_node(victim)
        # One version bump for the whole cascade (node + incident edges).
        assert social.version == version + 1
        after = social.evaluate(QUERIES[0])
        assert after != before
        assert all(
            victim not in answer.paths[0].elements for answer in after
        )
        assert after == Evaluator(social.graph).evaluate(
            parse_query(QUERIES[0])
        )

    def test_removal_round_trip_restores_cache_keying(self, social):
        """Removing and re-adding identical data yields a *new* version:
        the stale entry is not served as it is, even though the answers
        coincide — the re-added edge is an addition, so it is extended."""
        before = self._warm(social)
        edge = next(social.graph.iter_directed_edges())
        source, target = social.graph.source(edge), social.graph.target(edge)
        labels = social.graph.labels(edge)
        properties = dict(social.graph.properties(edge))
        social.remove_edge(edge)
        social.add_edge(edge.key, source, target, labels, properties)
        restored = social.evaluate(QUERIES[0])
        assert restored == before
        # Equal answers, but extended under the new version key.
        cache = social.stats.result_cache
        assert (cache.misses, cache.extends) == (1, 1)


class TestStats:
    def test_latency_percentiles_ordered(self, social):
        for _ in range(5):
            social.evaluate_batch(QUERIES)
        summary = social.stats.latency.summary()
        assert summary["count"] == 5 * len(QUERIES)
        assert summary["p50_s"] <= summary["p90_s"] <= summary["p99_s"]

    def test_as_dict_is_json_serialisable(self, social):
        import json

        social.evaluate(QUERIES[0])
        encoded = json.dumps(social.stats.as_dict())
        assert "result_cache" in encoded

    def test_snapshot_memoised_per_version(self, social):
        social.evaluate(QUERIES[0])
        social.evaluate(QUERIES[1])
        assert social.stats.snapshots_built == 1
        social.add_node("x")
        social.evaluate(QUERIES[0])
        assert social.stats.snapshots_built == 2


class TestLRUCache:
    def test_lru_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_get_or_create_runs_factory_once_per_miss(self):
        cache = LRUCache(4)
        calls = []
        cache.get_or_create("k", lambda: calls.append(1) or "v")
        cache.get_or_create("k", lambda: calls.append(1) or "v")
        assert len(calls) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestConcurrentMutation:
    def test_service_mutators_are_safe_during_serving(self):
        """Mutating through the service while a batch is in flight
        must never produce torn snapshots (UnknownIdError mid-eval)."""
        import threading

        service = GraphService(cycle_graph(6))
        errors: list[Exception] = []

        def mutate():
            try:
                for i in range(40):
                    node = service.add_node(f"extra{i}")
                    edge = service.add_edge(
                        f"eextra{i}", node, next(service.graph.iter_nodes())
                    )
                    service.remove_edge(edge)
                    service.remove_node(node)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writer = threading.Thread(target=mutate)
        writer.start()
        try:
            for _ in range(10):
                for result in service.evaluate_batch(
                    ["TRAIL (x) -> (y)", "SIMPLE (x) ->{1,2} (y)"]
                ):
                    assert result is not None
        finally:
            writer.join()
            service.close()
        assert errors == []
