"""Unit tests for the query planner (:mod:`repro.gpc.planner`)."""

import pytest

from reference import reference_answers
from repro.gpc.parser import parse_pattern, parse_query
from repro.gpc.planner import (
    REGISTER,
    estimate_pattern_cardinality,
    estimate_query_cardinality,
    explain_plan,
    join_shared_variables,
    plan_shortest,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import social_network, two_cliques_bridge


@pytest.fixture(scope="module")
def social():
    return social_network(num_people=12, friend_degree=2, seed=5)


@pytest.fixture(scope="module")
def social_snapshot(social):
    return social.snapshot()


class TestLeadingConstraints:
    def constraint(self, text):
        return plan_shortest(parse_pattern(text)).start

    def labels_of(self, constraint):
        assert constraint.alternatives is not None
        return {alt.labels for alt in constraint.alternatives}

    def test_labeled_node(self):
        constraint = self.constraint("(x:Person) -[:knows]-> (y)")
        assert self.labels_of(constraint) == {frozenset({"Person"})}

    def test_unlabeled_node_is_unconstrained(self):
        constraint = self.constraint("(x) -[:knows]-> (y:Person)")
        assert not constraint.constrains

    def test_bare_edge_is_unconstrained(self):
        assert not self.constraint("-[:knows]->").constrains

    def test_union_contributes_both_branches(self):
        constraint = self.constraint(
            "[(x:Person) -[:knows]-> (y) + (c:City) <-[:lives_in]- (y)]"
        )
        assert self.labels_of(constraint) == {
            frozenset({"Person"}),
            frozenset({"City"}),
        }

    def test_union_with_unconstrained_branch(self):
        constraint = self.constraint("[(x:Person) -> (y) + (x) -> (y)]")
        assert not constraint.constrains

    def test_zero_length_prefix_conjoins(self):
        # (x) always matches a single node, so the start node must also
        # satisfy the next factor's leading constraint.
        constraint = self.constraint("(x) (y:Person) -[:knows]-> (z)")
        assert self.labels_of(constraint) == {frozenset({"Person"})}

    def test_condition_adds_property_constraint(self):
        constraint = self.constraint(
            "[(x:Person) -[:knows]-> (y)] << x.age = 30 >>"
        )
        (alt,) = constraint.alternatives
        assert alt.labels == frozenset({"Person"})
        assert alt.properties == frozenset({("age", 30)})

    def test_condition_under_or_is_not_required(self):
        constraint = self.constraint(
            "[(x:Person) -[:knows]-> (y)] << x.age = 30 OR y.age = 30 >>"
        )
        (alt,) = constraint.alternatives
        assert alt.properties == frozenset()

    def test_condition_under_not_is_not_required(self):
        constraint = self.constraint(
            "[(x:Person) -[:knows]-> (y)] << NOT x.age = 30 >>"
        )
        (alt,) = constraint.alternatives
        assert alt.properties == frozenset()

    def test_property_only_constraint_without_label(self):
        constraint = self.constraint("[(x) -[:knows]-> (y)] << x.age = 30 >>")
        (alt,) = constraint.alternatives
        assert alt.labels == frozenset()
        assert alt.properties == frozenset({("age", 30)})
        assert constraint.constrains

    def test_repeat_lower_zero_is_unconstrained(self):
        assert not self.constraint("[(x:Person) -[:knows]-> (y)]{0,3}").constrains

    def test_repeat_lower_one_uses_body(self):
        constraint = self.constraint("[(x:Person) -[:knows]-> (y)]{1,3}")
        assert self.labels_of(constraint) == {frozenset({"Person"})}

    def test_repeat_strips_group_variables(self):
        constraint = self.constraint("[(x:Person) -[:knows]-> (y)]{1,3}")
        (alt,) = constraint.alternatives
        assert alt.variable is None


class TestTrailingConstraints:
    def test_trailing_label(self):
        plan = plan_shortest(parse_pattern("(x:Person) -[:lives_in]-> (c:City)"))
        (alt,) = plan.end.alternatives
        assert alt.labels == frozenset({"City"})

    def test_trailing_zero_length_suffix_conjoins(self):
        plan = plan_shortest(parse_pattern("(x:Person) -[:knows]-> (y:Person) (z)"))
        (alt,) = plan.end.alternatives
        assert alt.labels == frozenset({"Person"})


class TestCandidateNodes:
    def test_label_candidates_match_index(self, social_snapshot):
        constraint = plan_shortest(
            parse_pattern("(c:City) <-[:lives_in]- (p)")
        ).start
        candidates = constraint.candidate_nodes(social_snapshot)
        assert candidates == tuple(
            sorted(social_snapshot.nodes_with_label("City"))
        )

    def test_unconstrained_returns_none(self, social_snapshot):
        constraint = plan_shortest(parse_pattern("(x) -> (y)")).start
        assert constraint.candidate_nodes(social_snapshot) is None

    def test_property_candidates_filter(self, social_snapshot):
        pattern = parse_pattern("[(x:Person) -[:knows]-> (y)] << x.age = 30 >>")
        candidates = plan_shortest(pattern).start.candidate_nodes(
            social_snapshot
        )
        assert candidates is not None
        for node in candidates:
            assert social_snapshot.get_property(node, "age") == 30
        # ... and no qualifying node was dropped.
        expected = [
            node
            for node in social_snapshot.nodes_with_label("Person")
            if social_snapshot.get_property(node, "age") == 30
        ]
        assert sorted(candidates) == sorted(expected)

    def test_works_on_mutable_graph_too(self, social):
        constraint = plan_shortest(
            parse_pattern("(c:City) <-[:lives_in]- (p)")
        ).start
        candidates = constraint.candidate_nodes(social)
        assert candidates == tuple(sorted(social.nodes_with_label("City")))


class TestJoinVariables:
    def test_shared_singleton_variable(self):
        query = parse_query(
            "TRAIL (x:Person) -[:knows]-> (y:Person), "
            "TRAIL (y:Person) -[:lives_in]-> (c:City)"
        )
        assert join_shared_variables(query) == ("y",)

    def test_disjoint_schemas(self):
        query = parse_query("TRAIL (x) -> (y), TRAIL (a) -> (b)")
        assert join_shared_variables(query) == ()

    def test_multiple_shared_variables(self):
        query = parse_query(
            "TRAIL (x) -[e:knows]-> (y), TRAIL (x) -[e:knows]-> (y)"
        )
        assert join_shared_variables(query) == ("e", "x", "y")


class TestCardinalityEstimates:
    def test_labeled_node_uses_label_count(self, social_snapshot):
        est = estimate_pattern_cardinality(parse_pattern("(c:City)"), social_snapshot)
        assert est == social_snapshot.num_nodes_with_label("City")

    def test_unlabeled_node_uses_node_count(self, social_snapshot):
        est = estimate_pattern_cardinality(parse_pattern("(x)"), social_snapshot)
        assert est == social_snapshot.num_nodes

    def test_labeled_edge_uses_edge_count(self, social_snapshot):
        est = estimate_pattern_cardinality(
            parse_pattern("-[:lives_in]->"), social_snapshot
        )
        assert est == social_snapshot.num_directed_edges_with_label("lives_in")

    def test_union_adds(self, social_snapshot):
        single = estimate_pattern_cardinality(
            parse_pattern("-[:knows]->"), social_snapshot
        )
        double = estimate_pattern_cardinality(
            parse_pattern("[-[:knows]-> + -[:knows]->]"), social_snapshot
        )
        assert double == 2 * single

    def test_selective_side_estimated_cheaper(self, social_snapshot):
        query = parse_query(
            "TRAIL (x:Person) -[:knows]-> (y:Person), "
            "TRAIL (y:Person) -[:lives_in]-> (c:City)"
        )
        left = estimate_query_cardinality(query.left, social_snapshot)
        right = estimate_query_cardinality(query.right, social_snapshot)
        # lives_in is one edge per person; knows has friend_degree per
        # person — the estimator must order them accordingly.
        assert right < left

    def test_unbounded_repeat_saturates(self, social_snapshot):
        est = estimate_pattern_cardinality(
            parse_pattern("-[:knows]->{0,}"), social_snapshot
        )
        assert est > 0

    def test_huge_fixed_repeat_saturates_without_overflow(self):
        # factor > 1 with a very large lower bound used to raise
        # OverflowError from float pow before the cap could clamp it.
        graph = social_network(num_people=40, friend_degree=10, seed=1)
        est = estimate_pattern_cardinality(
            parse_pattern("-[:knows]->{600,600}"), graph
        )
        assert est == 1e18

    def test_tiny_factor_huge_repeat_underflows_to_floor(self, social_snapshot):
        est = estimate_pattern_cardinality(
            parse_pattern("-[:married]->{900,900}"), social_snapshot
        )
        assert est >= 1.0


class TestExplainPlan:
    def test_mentions_hash_join_and_shared_vars(self, social):
        query = parse_query(
            "TRAIL (x:Person) -[:knows]-> (y:Person), "
            "TRAIL (y:Person) -[:lives_in]-> (c:City)"
        )
        text = explain_plan(query, social)
        assert "hash join on [y]" in text
        assert "evaluate" in text and "first" in text

    def test_mentions_start_pruning(self, social):
        query = parse_query("SHORTEST (c:City) <-[:lives_in]- (p:Person)")
        text = explain_plan(query, social)
        assert "register-NFA shortest" in text
        assert ":City" in text and "starts" in text

    def test_graph_free_explain(self):
        query = parse_query("SHORTEST (c:City) <-[:lives_in]- (p:Person)")
        text = explain_plan(query)
        assert ":City" in text and "nodes)" not in text

    def test_shortest_names_its_source_of_assignments(self):
        from repro.gpc.collect import CollectMode
        from repro.gpc.engine import EngineConfig, Evaluator, QueryPlan

        flat = parse_query("SHORTEST (x) ->{1,8} (y)")
        group = parse_query("SHORTEST (x) -[e]->{1,8} (y)")
        edgeless = parse_query("SHORTEST (x) [() + ->]{1,1} (y)")
        binding_edgeless = parse_query("SHORTEST (x) [(z:A)]{1,} -> (y)")
        nested = parse_query("SHORTEST (x) [[-[e]->]{1,2} (z)]{1,2} (y)")

        def line_of(query, plan):
            return plan.explain(query).splitlines()[1]

        def source_of(query, plan):
            return line_of(query, plan).partition("; assignments: ")[2]

        plan = QueryPlan()
        runtime = QueryPlan(EngineConfig(collect_mode=CollectMode.RUNTIME))
        # One rule under every collect mode: the exact automaton serves
        # the pattern, edgeless bodies (lint GPC022) included.
        for served_by in (plan, runtime):
            assert source_of(flat, served_by) == "register run"
            assert source_of(group, served_by) == "register run (groups e)"
            assert source_of(nested, served_by) == "register run (groups e, z)"
            assert source_of(edgeless, served_by) == "register run"
            assert source_of(binding_edgeless, served_by) == "register run (groups z)"
            for query in (edgeless, binding_edgeless):
                route = served_by.pattern_plan(query.pattern).route
                assert route[::2] == (REGISTER, None)
        # A bare explain_plan (no plan, no mode) does not say.
        for query in (flat, group, binding_edgeless):
            assert "assignments" not in explain_plan(query)
        graph = GraphBuilder().node("a", "A").edge("a", "b").edge("b", "a").edge("b", "b").build()
        for query, served_by in ((binding_edgeless, plan), (edgeless, runtime)):
            assert Evaluator(graph, plan=served_by).evaluate(query) == reference_answers(
                graph, query, graph.num_nodes, served_by.config.collect_mode
            )

    def test_shortest_names_the_registers_its_search_carries(self):
        from repro.gpc.engine import EngineConfig, QueryPlan

        def search_of(text, plan):
            line = plan.explain(parse_query(text)).splitlines()[1]
            return line.partition("; search: ")[2].partition("; assign")[0]

        plan = QueryPlan()
        assert search_of("SHORTEST (x) ->{1,8} (y)", plan) == "register-free"
        assert (
            search_of("SHORTEST [(x) ->{1,} (y)] << x.k = y.k >>", plan)
            == "registers x, y (read by << x.k = y.k >>)"
        )
        # Unrolled copies of a body are one site.
        assert search_of("SHORTEST (x) -[e]->{1,8} (y)", plan) == "register-free"
        assert search_of(
            "SHORTEST [(x) -[e]-> (y) <-[e]- (x)] << x.k = y.k >>", plan
        ) == (
            "registers x, y, e "
            "(read by << x.k = y.k >>; e bound at 2 sites)"
        )
        # A pushed atom is not read by any check; unpushed, it is.
        atom = "SHORTEST [(x) ->{1,} (y)] << x.k = 1 >>"
        assert search_of(atom, plan) == "register-free"
        unpushed = QueryPlan(EngineConfig(use_pushdown=False))
        assert search_of(atom, unpushed) == "registers x (read by << x.k = 1 >>)"
        assert "search" not in explain_plan(parse_query(atom))

    def test_cross_product_named(self):
        query = parse_query("TRAIL (x) -> (y), TRAIL (a) -> (b)")
        assert "cross product" in explain_plan(query)

    def test_queryplan_and_prepared_expose_explain(self, social):
        from repro.gpc.engine import QueryPlan
        from repro.service import PreparedQuery

        query = parse_query("SHORTEST (c:City) <-[:lives_in]- (p:Person)")
        via_plan = QueryPlan().explain(query, social)
        via_prepared = PreparedQuery(query).explain(social)
        assert via_plan == via_prepared
        assert "plan:" in via_plan


class TestPlanMemoisation:
    def test_shortest_plan_memoised(self):
        from repro.gpc.engine import QueryPlan

        plan = QueryPlan()
        pattern = parse_pattern("(x:L) -[:c]-> (y:L)")
        assert plan.shortest_plan(pattern) is plan.shortest_plan(pattern)

    def test_join_variables_memoised(self):
        from repro.gpc.engine import QueryPlan

        plan = QueryPlan()
        query = parse_query("TRAIL (x:L) -[:c]-> (y:L), TRAIL (y:L) -[:c]-> (z:L)")
        assert plan.join_variables(query) is plan.join_variables(query)

    def test_precompile_populates_analyses(self):
        from repro.gpc.engine import QueryPlan

        plan = QueryPlan()
        query = parse_query(
            "SHORTEST (x:L) -[:c]-> (y:L), TRAIL (y:L) -[:c]-> (z:L)"
        )
        plan.precompile(query)
        assert query in plan._join_variables
        assert query.left.pattern in plan._patterns

    def test_prepared_execution_never_reinfers_schemas(self, social, monkeypatch):
        # Per-execution cardinality estimation must go through the
        # plan's join_variables memo, not re-run infer_schema.
        import repro.gpc.planner as planner_module
        from repro.service import PreparedQuery

        prepared = PreparedQuery(
            "TRAIL (x:Person) -[:knows]-> (y:Person), "
            "TRAIL (y:Person) -[:knows]-> (z:Person), "
            "TRAIL (z:Person) -[:lives_in]-> (c:City)"
        )
        calls = []
        real = planner_module.infer_schema
        monkeypatch.setattr(
            planner_module,
            "infer_schema",
            lambda expr: calls.append(expr) or real(expr),
        )
        for _ in range(3):
            prepared.execute(social)
        assert calls == []
        # explain() on a prepared plan reuses the memos too.
        prepared.explain(social)
        assert calls == []


class TestBridgeGraphSanity:
    def test_bridge_join_order(self):
        graph = two_cliques_bridge(4)
        query = parse_query(
            "TRAIL (x:L) -[:c]-> (y:L), TRAIL (a:L) -[b:bridge]-> (z:R)"
        )
        snapshot = graph.snapshot()
        left = estimate_query_cardinality(query.left, snapshot)
        right = estimate_query_cardinality(query.right, snapshot)
        assert right < left  # one bridge edge vs a whole clique
