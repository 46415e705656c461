"""Unit tests for the static analyzer (:mod:`repro.gpc.analysis`).

The differential/soundness half lives in
``tests/properties/test_property_analysis.py``; this file pins the
individual pieces: condition simplification rules, diagnostic codes,
the engine's short-circuit and counters, explain output, plan
memoisation, and the lint surfaces (service, cluster, CLI).
"""

from __future__ import annotations

import pytest

from repro.errors import CollectError
from repro.extensions.label_expressions import (
    LabelAnd,
    LabelAtom,
    LabelNot,
    LabelOr,
    NodeWithLabelExpr,
    label_expr_satisfiable,
)
from repro.gpc import ast
from repro.gpc import analysis as an
from repro.gpc.analysis import (
    Diagnostic,
    analyze_query,
    lint_query,
    render_diagnostics,
    simplify_condition,
)
from repro.gpc.collect import CollectMode
from repro.gpc.conditions_ast import And, Not, Or, PropertyEqualsConst
from repro.gpc.engine import EngineConfig, Evaluator, QueryPlan
from repro.gpc.parser import parse_query
from repro.gpc.register_nfa import compile_register_nfa
from repro.graph import GraphBuilder
from repro.obs import EvalCounters, use_counters
from repro.service import GraphService


def atom(variable: str, key: str, constant: object) -> PropertyEqualsConst:
    return PropertyEqualsConst(variable, key, constant)


A = atom("x", "k", 1)
B = atom("y", "k", 2)


def small_graph():
    builder = GraphBuilder()
    builder.node("a", "P", k=1)
    builder.node("b", "Q", k=2)
    builder.edge("a", "b", "r")
    return builder.build()


class TestSimplifyCondition:
    def test_atom_is_returned_unchanged(self):
        assert simplify_condition(A) is A

    def test_unchanged_tree_is_same_object(self):
        condition = And(A, B)
        assert simplify_condition(condition) is condition

    def test_double_negation(self):
        assert simplify_condition(Not(Not(A))) is A

    def test_dedup_along_spine(self):
        assert simplify_condition(And(A, And(B, A))) == And(A, B)

    def test_complement_pair_and_is_false(self):
        assert simplify_condition(And(A, Not(A))) is False

    def test_complement_pair_or_is_true(self):
        assert simplify_condition(Or(A, Not(A))) is True

    def test_constant_conflict_is_false(self):
        assert simplify_condition(And(A, atom("x", "k", 0))) is False

    def test_constant_conflict_only_on_and_spine(self):
        condition = Or(A, atom("x", "k", 0))
        assert simplify_condition(condition) is condition

    def test_collapse_to_single_part(self):
        assert simplify_condition(And(A, A)) is A

    def test_nested_spine_surfaced_by_rewrite_is_flattened(self):
        # NOT NOT (a AND b) under an AND: the inner spine must merge.
        assert simplify_condition(And(Not(Not(And(A, B))), A)) == And(A, B)

    def test_false_absorbs_and_true_absorbs_or(self):
        assert simplify_condition(And(A, And(B, Not(B)))) is False
        assert simplify_condition(Or(A, Or(B, Not(B)))) is True

    def test_non_condition_raises(self):
        with pytest.raises(TypeError):
            simplify_condition("not a condition")


class TestDiagnosticCodes:
    def lint(self, text: str) -> set[str]:
        return {d.code for d in lint_query(text)}

    def test_parse_error_is_gpc000(self):
        (diagnostic,) = lint_query("TRAIL (x:")
        assert diagnostic.code == an.PARSE_ERROR
        assert diagnostic.severity == "error"
        assert diagnostic.span == "TRAIL (x:"

    def test_type_error_is_gpc001(self):
        # `x` is both a node and an edge variable: ill-typed.
        (diagnostic,) = lint_query("TRAIL (x) -[x:r]-> (y)")
        assert diagnostic.code == an.TYPE_ERROR
        assert diagnostic.severity == "error"

    def test_provably_empty_condition(self):
        codes = self.lint(
            "TRAIL [(x:P) -[:r]-> (y)] << x.k = 0 AND x.k = 1 >>"
        )
        assert an.PROVABLY_EMPTY in codes
        assert an.ALWAYS_FALSE_CONDITION in codes

    def test_dead_union_branch(self):
        codes = self.lint(
            "TRAIL [(x:P) << x.k = 0 AND x.k = 1 >> + (x:P)] -[:r]-> (y)"
        )
        assert an.DEAD_UNION_BRANCH in codes
        assert an.PROVABLY_EMPTY not in codes

    def test_condition_simplified_info(self):
        codes = self.lint(
            "TRAIL [(x:P) -[:r]-> (y)] << x.k = 1 AND x.k = 1 >>"
        )
        assert an.CONDITION_SIMPLIFIED in codes

    def test_tautology_dropped(self):
        codes = self.lint(
            "TRAIL [(x:P) -[:r]-> (y)] << x.k = 1 OR NOT x.k = 1 >>"
        )
        assert an.TAUTOLOGY_DROPPED in codes

    def test_unanchored_shortest_warns(self):
        codes = self.lint("SHORTEST (x) -[:r]->{1,} (y)")
        assert an.UNANCHORED_SHORTEST in codes

    def test_anchored_shortest_does_not_warn(self):
        codes = self.lint("SHORTEST (x:P) -[:r]->{1,} (y)")
        assert an.UNANCHORED_SHORTEST not in codes

    def test_unbounded_repeat(self):
        codes = self.lint("TRAIL (x:P) -[:r]->{1,} (y)")
        assert an.UNBOUNDED_REPEAT in codes

    def test_unbounded_repeat_on_the_register_route_does_not_deepen(self):
        text = "SHORTEST (x:Person) -[e:knows]->{1,} (y:Person)"
        graph = GraphBuilder().node("a", "Person").build()
        assert "register-NFA shortest" in GraphService(graph).explain(text)
        (diagnostic,) = [
            d
            for d in analyze_query(parse_query(text)).diagnostics
            if d.code == an.UNBOUNDED_REPEAT
        ]
        assert diagnostic.severity == "warning"
        assert "iteratively deepens" not in diagnostic.message
        assert "register search finds the exact minimum" in diagnostic.message
        for wrapper in (
            "ArithConditioned", "RestrictedSubpattern", "WitnessMarked",
        ):
            assert wrapper in diagnostic.message
        assert "`shortest_deepening_limit`" in diagnostic.message
        assert "under trail/simple the bound is the graph size" in (
            diagnostic.message
        )

    def test_edgeless_repeat_body(self):
        codes = self.lint("TRAIL [(x)]{1,2} (y)")
        assert an.EDGELESS_REPEAT_BODY in codes
        # The code `explain` cites when it refuses the register route.
        (message,) = {
            d.message
            for d in lint_query("SHORTEST (x:P) [(z)]{1,2} -> (y)")
            if d.code == an.EDGELESS_REPEAT_BODY
        }
        assert message.endswith(
            "under `shortest` a body that also binds a variable runs the "
            "specification, not the register search (a register run cannot "
            "regroup edgeless iterations)"
        )
        # It never iterates: no warning, and no refusal either.
        assert an.EDGELESS_REPEAT_BODY not in self.lint(
            "SHORTEST (x:P) [(z)]{0,0} -> (y)"
        )

    def test_repeat_only_zero(self):
        codes = self.lint(
            "TRAIL (s) [[(x:P) -[:r]-> (y)] << x.k = 0 AND x.k = 1 >>]{0,2} (t)"
        )
        assert an.REPEAT_ONLY_ZERO in codes

    def test_atom_under_or_not_on_spine(self):
        codes = self.lint(
            "SHORTEST [(x:P) -[:r]-> (y)] << x.k = 1 OR y.k = 2 >>"
        )
        assert an.ATOM_NOT_ON_SPINE in codes

    def test_an_atom_on_a_label_expression_variable_is_pushed(self):
        # `x` binds at a label expression's node test, which takes the
        # atom like a core node pattern's bind site.
        pattern = ast.Conditioned(
            NodeWithLabelExpr(LabelAtom("P"), "x"),
            PropertyEqualsConst("x", "k", 1),
        )
        assert compile_register_nfa(pattern, pushdown=True).pushed_atoms == 1

    def test_clean_query_is_quiet(self):
        assert lint_query("TRAIL (x:P) -[:r]-> (y:Q)") == ()

    def test_lint_accepts_ast_queries(self):
        query = parse_query(
            "TRAIL [(x:P) -[:r]-> (y)] << x.k = 0 AND x.k = 1 >>"
        )
        codes = {d.code for d in lint_query(query)}
        assert an.PROVABLY_EMPTY in codes


class TestJoinAnalysis:
    def test_join_contradiction_is_provably_empty(self):
        left = parse_query("TRAIL [(x:P)] << x.k = 0 >>")
        right = parse_query("TRAIL [(x:P)] << x.k = 1 >>")
        verdict = analyze_query(ast.Join(left, right))
        assert verdict.provably_empty
        messages = [d.message for d in verdict.diagnostics]
        assert any("contradictory constraints" in m for m in messages)

    def test_join_without_shared_constraints_is_fine(self):
        left = parse_query("TRAIL [(x:P)] << x.k = 0 >>")
        right = parse_query("TRAIL [(y:P)] << y.k = 1 >>")
        verdict = analyze_query(ast.Join(left, right))
        assert not verdict.provably_empty

    def test_comma_join_syntax_reaches_join_analysis(self):
        verdict = analyze_query(
            parse_query(
                "TRAIL [(x:P)] << x.k = 0 >>, TRAIL [(x:P)] << x.k = 1 >>"
            )
        )
        assert verdict.provably_empty

    def test_join_evaluates_empty(self):
        query = parse_query(
            "TRAIL [(x:P)] << x.k = 0 >>, TRAIL [(x:P)] << x.k = 1 >>"
        )
        graph = small_graph()
        assert Evaluator(graph).evaluate(query) == frozenset()
        off = Evaluator(graph, EngineConfig(use_analysis=False))
        assert off.evaluate(query) == frozenset()


class TestLabelExpressionExtension:
    def unsat_node(self) -> NodeWithLabelExpr:
        return NodeWithLabelExpr(
            LabelAnd(LabelAtom("A"), LabelNot(LabelAtom("A"))), "x"
        )

    def test_label_expr_satisfiable(self):
        assert label_expr_satisfiable(LabelOr(LabelAtom("A"), LabelAtom("B")))
        assert not label_expr_satisfiable(
            LabelAnd(LabelAtom("A"), LabelNot(LabelAtom("A")))
        )

    def test_atom_cap_is_conservative(self):
        unsat = LabelAnd(LabelAtom("A"), LabelNot(LabelAtom("A")))
        assert label_expr_satisfiable(unsat, atom_cap=0)

    def test_unsat_extension_proves_query_empty(self):
        query = ast.PatternQuery(
            ast.Restrictor.TRAIL, self.unsat_node()
        )
        verdict = analyze_query(query)
        assert verdict.provably_empty
        messages = [d.message for d in verdict.diagnostics]
        assert any("extension construct is unsatisfiable" in m for m in messages)

    def test_unsat_extension_short_circuits_evaluation(self):
        query = ast.PatternQuery(
            ast.Restrictor.TRAIL, self.unsat_node()
        )
        graph = small_graph()
        counters = EvalCounters()
        with use_counters(counters):
            assert Evaluator(graph).evaluate(query) == frozenset()
        assert counters.queries_proven_empty == 1


class TestEngineIntegration:
    EMPTY = "TRAIL [(x:P) -[:r]-> (y)] << x.k = 0 AND x.k = 1 >>"
    SIMPLIFIABLE = "TRAIL [(x:P) -[:r]-> (y)] << x.k = 1 AND x.k = 1 >>"
    DEAD_BRANCH = (
        "TRAIL [(x:P) << x.k = 0 AND x.k = 1 >> + (x:P)] -[:r]-> (y)"
    )

    def test_short_circuit_counts(self):
        counters = EvalCounters()
        with use_counters(counters):
            result = Evaluator(small_graph()).evaluate(
                parse_query(self.EMPTY)
            )
        assert result == frozenset()
        assert counters.queries_proven_empty == 1

    def test_simplified_query_counts(self):
        counters = EvalCounters()
        with use_counters(counters):
            Evaluator(small_graph()).evaluate(parse_query(self.SIMPLIFIABLE))
        assert counters.conditions_simplified == 1
        assert counters.queries_proven_empty == 0

    def test_dead_branch_counts(self):
        counters = EvalCounters()
        with use_counters(counters):
            Evaluator(small_graph()).evaluate(parse_query(self.DEAD_BRANCH))
        assert counters.dead_branches_pruned == 1

    def test_dead_branch_with_its_own_variable_is_kept(self):
        # z is Nothing in every answer of the union; pruning the dead
        # branch would drop it from the assignments.
        query = parse_query(
            "TRAIL [(z:P) << z.k = 0 AND z.k = 1 >> + (x:P)] -[:r]-> (y)"
        )
        counters = EvalCounters()
        with use_counters(counters):
            answers = Evaluator(small_graph()).evaluate(query)
        assert counters.dead_branches_pruned == 0
        assert answers == Evaluator(
            small_graph(), EngineConfig(use_analysis=False)
        ).evaluate(query)
        assert answers and all("z" in a.assignment for a in answers)

    def test_analysis_off_counts_nothing(self):
        counters = EvalCounters()
        evaluator = Evaluator(small_graph(), EngineConfig(use_analysis=False))
        with use_counters(counters):
            evaluator.evaluate(parse_query(self.EMPTY))
        assert counters.queries_proven_empty == 0

    def test_proven_empty_still_validates_collect(self):
        # The pruned evaluation must not skip the SYNTACTIC collect
        # check: query validity cannot depend on the analyzer.
        query = parse_query(
            "TRAIL (s) [[(x)] << x.k = 0 AND x.k = 1 >>]{1,2} (t)"
        )
        config = EngineConfig(collect_mode=CollectMode.SYNTACTIC)
        with pytest.raises(CollectError):
            Evaluator(small_graph(), config).evaluate(query)

    def test_plan_memoises_analysis(self):
        plan = QueryPlan()
        query = parse_query(self.EMPTY)
        assert plan.analysis(query) is plan.analysis(query)

    def test_plan_reports_regardless_of_flag(self):
        plan = QueryPlan(EngineConfig(use_analysis=False))
        query = parse_query(self.EMPTY)
        assert plan.provably_empty(query)
        assert any(
            d.code == an.PROVABLY_EMPTY for d in plan.diagnostics(query)
        )

    def test_explain_mentions_short_circuit_and_diagnostics(self):
        plan = QueryPlan()
        report = plan.explain(parse_query(self.EMPTY))
        assert "provably empty" in report
        assert f"[{an.PROVABLY_EMPTY}]" in report

    def test_explain_on_clean_query_says_no_diagnostics(self):
        plan = QueryPlan()
        report = plan.explain(parse_query("TRAIL (x:P) -[:r]-> (y:Q)"))
        assert "diagnostics: none" in report


class TestRenderers:
    def test_diagnostic_render_and_dict(self):
        diagnostic = Diagnostic("GPC999", "info", "msg", "(x)")
        assert diagnostic.render() == "[GPC999] info: msg (at: (x))"
        assert diagnostic.as_dict() == {
            "code": "GPC999",
            "severity": "info",
            "message": "msg",
            "span": "(x)",
        }

    def test_render_diagnostics(self):
        assert render_diagnostics(()) == "diagnostics: none"
        rendered = render_diagnostics(
            (Diagnostic("GPC999", "info", "msg", "(x)"),)
        )
        assert rendered.startswith("diagnostics:\n  [GPC999]")


class TestServiceLint:
    def test_prepared_query_exposes_diagnostics(self):
        service = GraphService(small_graph())
        prepared = service.prepare(
            "TRAIL [(x:P) -[:r]-> (y)] << x.k = 0 AND x.k = 1 >>"
        )
        assert prepared.analysis.provably_empty
        assert any(
            d.code == an.PROVABLY_EMPTY for d in prepared.diagnostics
        )

    def test_service_lint_well_formed(self):
        service = GraphService(small_graph())
        diagnostics = service.lint(
            "TRAIL [(x:P) -[:r]-> (y)] << x.k = 0 AND x.k = 1 >>"
        )
        assert any(d.code == an.PROVABLY_EMPTY for d in diagnostics)

    def test_service_lint_is_total_on_parse_errors(self):
        service = GraphService(small_graph())
        diagnostics = service.lint("TRAIL (x:")
        assert [d.code for d in diagnostics] == [an.PARSE_ERROR]

    def test_cluster_service_lint(self):
        from repro.cluster import ClusterService

        with ClusterService(small_graph(), backend="serial") as cluster:
            diagnostics = cluster.lint(
                "TRAIL [(x:P) -[:r]-> (y)] << x.k = 0 AND x.k = 1 >>"
            )
            assert any(d.code == an.PROVABLY_EMPTY for d in diagnostics)
            assert [d.code for d in cluster.lint("TRAIL (x:")] == [
                an.PARSE_ERROR
            ]


class TestLintCli:
    def run(self, argv, capsys):
        from repro.lint import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "queries.gpc"
        path.write_text(
            "# a comment\n\nTRAIL (x:P) -[:r]-> (y:Q)\n", encoding="utf-8"
        )
        code, out, _ = self.run([str(path)], capsys)
        assert code == 0
        assert out == ""

    def test_error_diagnostic_exits_one(self, tmp_path, capsys):
        path = tmp_path / "queries.gpc"
        path.write_text("TRAIL (x:\n", encoding="utf-8")
        code, out, _ = self.run([str(path)], capsys)
        assert code == 1
        assert "[GPC000]" in out
        assert f"{path}:1:" in out

    def test_strict_fails_on_warnings(self, tmp_path, capsys):
        path = tmp_path / "queries.gpc"
        path.write_text("SHORTEST (x) -[:r]->{1,} (y)\n", encoding="utf-8")
        code, _, _ = self.run([str(path)], capsys)
        assert code == 0
        code, out, _ = self.run(["--strict", str(path)], capsys)
        assert code == 1
        assert f"[{an.UNANCHORED_SHORTEST}]" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        path = tmp_path / "queries.gpc"
        path.write_text("TRAIL (x:\n", encoding="utf-8")
        code, out, _ = self.run(["--format", "json", str(path)], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload[0]["line"] == 1
        assert payload[0]["diagnostics"][0]["code"] == an.PARSE_ERROR

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        code, _, err = self.run([str(tmp_path / "missing.gpc")], capsys)
        assert code == 2
        assert "cannot read" in err
