"""Engine configuration knobs, limit errors, and the explain module."""

import pytest

from repro.errors import EvaluationLimitError
from repro.graph.generators import chain_graph, complete_graph, cycle_graph
from repro.gpc.engine import EngineConfig, Evaluator, evaluate
from repro.gpc.explain import explain, explain_pattern, explain_query
from repro.gpc.parser import parse_pattern, parse_query
from reference import reference_answers


class TestEngineLimits:
    def test_intermediate_result_limit(self):
        graph = complete_graph(5)
        config = EngineConfig(max_intermediate_results=10)
        with pytest.raises(EvaluationLimitError):
            Evaluator(graph, config).eval_pattern(
                parse_pattern("->{1,}"), max_length=5
            )

    def test_default_pattern_bound_is_edge_count(self, cycle4):
        matches = Evaluator(cycle4).eval_pattern(parse_pattern("->{1,}"))
        assert max(len(p) for p, _ in matches) == cycle4.num_edges

    @pytest.mark.parametrize("bound", [2, 3])
    def test_explicit_bound(self, cycle4, bound):
        matches = Evaluator(cycle4).eval_pattern(
            parse_pattern("->{1,}"), max_length=bound
        )
        assert max(len(p) for p, _ in matches) == bound

    def test_automaton_state_limit(self):
        graph = chain_graph(2)
        config = EngineConfig(automaton_state_limit=5)
        with pytest.raises(EvaluationLimitError):
            evaluate(parse_query("SHORTEST ->{1,}"), graph, config)

    def test_power_iteration_limit(self):
        graph = cycle_graph(2)
        config = EngineConfig(max_power_iterations=2)
        with pytest.raises(EvaluationLimitError):
            # lower bound 5 needs 5 power iterations > 2.
            Evaluator(graph, config).eval_pattern(
                parse_pattern("->{5,5}"), max_length=5
            )

    def test_memoization_shares_work(self, cycle4):
        evaluator = Evaluator(cycle4)
        pattern = parse_pattern("->{1,}")
        first = evaluator.eval_pattern(pattern, max_length=3)
        second = evaluator.eval_pattern(pattern, max_length=3)
        assert first is second  # memo returns the same frozenset


class TestConfigPlanMismatch:
    """``Evaluator(graph, config=A, plan=compiled_with_B)`` used to
    silently evaluate under A while running B's automata."""

    def test_disagreeing_config_and_plan_raise(self, cycle4):
        from repro.gpc.engine import QueryPlan

        plan = QueryPlan(EngineConfig(automaton_state_limit=10))
        with pytest.raises(ValueError, match="disagrees"):
            Evaluator(cycle4, EngineConfig(), plan=plan)

    def test_matching_config_and_plan_are_fine(self, cycle4):
        from repro.gpc.engine import QueryPlan

        config = EngineConfig(automaton_state_limit=10)
        evaluator = Evaluator(cycle4, config, plan=QueryPlan(config))
        assert evaluator.config == config

    def test_plan_alone_supplies_its_config(self, cycle4):
        from repro.gpc.engine import QueryPlan

        config = EngineConfig(shortest_deepening_limit=7)
        evaluator = Evaluator(cycle4, plan=QueryPlan(config))
        assert evaluator.config == config

    def test_config_alone_builds_matching_plan(self, cycle4):
        config = EngineConfig(shortest_deepening_limit=7)
        evaluator = Evaluator(cycle4, config)
        assert evaluator.plan.config == config


class TestExplainPattern:
    def test_well_typed_report(self):
        report = explain_pattern(parse_pattern("(x) -[e]->{1,3} (y)"))
        assert report.well_typed
        assert report.min_length == 1
        assert report.max_length == 3
        assert set(report.schema) == {"x", "e", "y"}
        assert "Group(Edge)" in report.render()

    def test_ill_typed_report(self):
        report = explain_pattern(parse_pattern("(x) -[x]-> ()"))
        assert not report.well_typed
        assert report.type_error
        assert "ILL-TYPED" in report.render()

    def test_gql_rule_flag(self):
        good = explain_pattern(parse_pattern("->{0,}"))
        bad = explain_pattern(parse_pattern("(x){1,}"))
        assert good.gql_repetition_legal
        assert not bad.gql_repetition_legal
        assert "VIOLATED" in bad.render()

    def test_unbounded_length_rendering(self):
        report = explain_pattern(parse_pattern("->*"))
        assert report.max_length is None
        assert "unbounded" in report.render()


class TestExplainQuery:
    def test_per_item_strategies(self):
        query = parse_query("TRAIL (x) -> (y), SHORTEST (y) ->{1,} (z)")
        report = explain_query(query)
        strategies = [s for s, _ in report.items]
        assert "register-NFA trail walk" in strategies[0]
        assert "register-NFA" in strategies[1]

    def test_shortest_trail_strategy(self):
        query = parse_query("SHORTEST TRAIL ->{1,}")
        report = explain_query(query)
        assert "per-pair minima" in report.items[0][0]

    def test_explain_dispatches(self):
        assert "query:" in explain(parse_query("TRAIL (x)"))
        assert "pattern:" in explain(parse_pattern("(x)"))


class TestLenientShortest:
    def test_lenient_mode_returns_partial(self):
        # Only the deepening route reads the flag; a register-route
        # query under lenient + a tiny limit still returns answers.
        graph = chain_graph(3)
        config = EngineConfig(lenient_shortest=True, shortest_deepening_limit=8)
        answers = evaluate(parse_query("SHORTEST ->{1,}"), graph, config)
        assert answers

    def test_the_deepening_limit_error_names_the_route_reason(self):
        # A GPC022 body: the NFA is exact, so the unresolved pairs are
        # real ones whose shortest match is longer than the limit.
        graph = chain_graph(4)
        query = parse_query("SHORTEST (x) [[-[e]->]{0,2}]{1,} (y)")
        config = EngineConfig(shortest_deepening_limit=2)
        plan = Evaluator(graph, config).plan.pattern_plan(query.pattern)
        assert plan.nfa.exact
        why = plan.route[2]
        assert why == "GPC022: repeat body binds e and may match an edgeless path"
        with pytest.raises(EvaluationLimitError) as raised:
            evaluate(query, graph, config)
        message = str(raised.value)
        assert "3 candidate endpoint pair(s) unresolved at deepening limit 2" in message
        assert f"the pattern deepens ({why})" in message
        assert "over-approximates" not in message
        answers = evaluate(query, graph)
        assert answers == reference_answers(graph, query, horizon=4)
        assert max(len(answer.path) for answer in answers) == 4
