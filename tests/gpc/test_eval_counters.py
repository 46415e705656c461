"""The engine's work counters: every counter field is exercised by a
query shape that provably does that kind of work, increments land on
the ambient struct, and ``explain(analyze=...)`` reports them."""

from __future__ import annotations

from reference import reference_answers
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.gpc.planner import BOUNDED_FILTER, REGISTER
from repro.graph.generators import social_network
from repro.obs import EvalCounters, use_counters
from repro.service import GraphService


def _evaluate(text: str, graph=None) -> EvalCounters:
    graph = graph if graph is not None else social_network(
        num_people=14, friend_degree=2, seed=9
    )
    counters = EvalCounters()
    with use_counters(counters):
        Evaluator(graph).evaluate(parse_query(text))
    return counters


class TestCounterSources:
    def test_shortest_counts_nfa_work_and_deepening(self):
        counters = _evaluate(
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"
        )
        assert counters.nfa_states_expanded > 0
        assert counters.nfa_transitions > 0
        # Every pair resolved at its register minimum: nothing deepened.
        assert counters.deepening_rounds == 0
        # Every accepted walk took at least one edge expansion.
        assert counters.witness_steps >= counters.witnesses > 0

    def test_group_variable_leaves_the_witness_search_if_a_run_cannot_know_it(self):
        # ... only when an iteration may consume no edge (GPC022). A
        # body that always takes one has its lists read off the run.
        # Small enough for the reference: a shortest path is simple.
        graph = social_network(num_people=5, friend_degree=2, seed=9)
        for text, route, why, witnessed in (
            ("SHORTEST (x:Person) -[e:knows]->{1,} (y:Person)", REGISTER, None, True),
            (
                "SHORTEST (x) [(z:Person)]{1,} -[:knows]-> (y)",
                BOUNDED_FILTER,
                "GPC022: repeat body binds z and may match an edgeless path",
                False,
            ),
        ):
            query = parse_query(text)
            evaluator = Evaluator(graph)
            assert evaluator.plan.pattern_plan(query.pattern).route[::2] == (route, why)
            counters = EvalCounters()
            with use_counters(counters):
                answers = evaluator.evaluate(query)
            assert (counters.witnesses > 0) == witnessed
            assert counters.deepening_rounds == 0
            assert answers == reference_answers(graph, query, graph.num_nodes)

    def test_multi_pattern_counts_join_rows(self):
        counters = _evaluate(
            "TRAIL (x:Person) -[:knows]-> (y:Person), "
            "TRAIL (y:Person) -[:lives_in]-> (c:City)"
        )
        assert counters.join_build_rows > 0
        assert counters.join_probe_rows > 0

    def test_conditioned_pattern_counts_condition_evals(self):
        counters = _evaluate(
            "TRAIL [ (x:Person) -[e:knows]-> (y:Person) ]"
            " << x.name = y.name >>"
        )
        assert counters.condition_evals > 0

    def test_planner_prunes_seeds(self):
        counters = _evaluate(
            "SHORTEST (x:City) <-[:lives_in]- (y:Person)"
        )
        # Cities are a strict subset of the nodes: the planner's
        # candidate analysis must have discarded the Person seeds.
        assert counters.seeds_pruned > 0

    def test_trail_without_shortest_does_no_nfa_work(self):
        counters = _evaluate("TRAIL (x:Person) -[:knows]-> (y:Person)")
        assert counters.nfa_states_expanded == 0
        assert counters.deepening_rounds == 0

    def test_no_ambient_struct_is_harmless(self):
        graph = social_network(num_people=10, seed=3)
        result = Evaluator(graph).evaluate(
            parse_query("SHORTEST (x:Person) -[:knows]->{1,} (y:Person)")
        )
        assert result  # evaluation unaffected when nobody is counting


class TestServiceAggregation:
    def test_service_stats_accumulate_across_queries(self):
        service = GraphService(social_network(num_people=14, seed=9))
        service.evaluate(
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
            use_cache=False,
        )
        first = service.stats.engine.nfa_states_expanded
        assert first > 0
        service.evaluate(
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
            use_cache=False,
        )
        assert service.stats.engine.nfa_states_expanded == 2 * first
        service.close()

    def test_explain_analyze_reports_observed_work(self):
        service = GraphService(social_network(num_people=14, seed=9))
        plain = service.explain(
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"
        )
        analyzed = service.explain(
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)", analyze=True
        )
        assert "observed execution" not in plain
        assert "observed execution" in analyzed
        assert "nfa_states_expanded" in analyzed
        assert "witness_steps" in analyzed
        assert "assignments: register run" in plain
        assert "answers:" in analyzed
        service.close()
