"""Section 7 extensions: arithmetic conditions, the Diophantine gadget,
label expressions, mixed restrictors, bag semantics."""

import pytest

from repro.direction import Direction
from repro.errors import CollectError, GPCTypeError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain_graph, transport_network
from repro.graph.ids import NodeId as N
from repro.gpc import ast
from repro.gpc.assignments import Assignment
from repro.gpc.engine import Evaluator
from repro.gpc.explain import explain_query
from repro.gpc.parser import parse_pattern, parse_query
from repro.gpc.pretty import pretty
from repro.graph.paths import Path, is_simple, is_trail
from repro.gpc.typing import infer_schema
from repro.gpc.values import GroupValue
from repro.extensions.arithmetic import (
    ArithConditioned,
    Count,
    PropertyTerm,
    TermConst,
    TermProduct,
    TermSum,
    evaluate_term,
)
from repro.extensions.bag_semantics import BagEvaluator
from repro.extensions.diophantine import (
    DiophantineInstance,
    build_gadget_graph,
    build_gadget_pattern,
    solve_bounded,
)
from repro.extensions.label_expressions import (
    EdgeWithLabelExpr,
    LabelAnd,
    LabelAtom,
    LabelNot,
    LabelOr,
    LabelWildcard,
    NodeWithLabelExpr,
    satisfies_label_expr,
)
from repro.extensions.mixed_restrictors import (
    RestrictedSubpattern,
    WitnessMarked,
    section7_anomaly,
)
from repro.obs import EvalCounters, canonical_query, use_counters
from repro.service import GraphService


class TestArithmeticTerms:
    @pytest.fixture
    def graph(self):
        return GraphBuilder().node("a", k=3).node("b").build()

    def test_const(self, graph):
        assert evaluate_term(TermConst(7), graph, Assignment({})) == 7

    def test_property_term(self, graph):
        mu = Assignment({"x": N("a")})
        assert evaluate_term(PropertyTerm("x", "k"), graph, mu) == 3

    def test_undefined_property_is_none(self, graph):
        mu = Assignment({"x": N("b")})
        assert evaluate_term(PropertyTerm("x", "k"), graph, mu) is None

    def test_count(self, graph):
        group = GroupValue(((Path.node(N("a")), N("a")),))
        mu = Assignment({"g": group})
        assert evaluate_term(Count("g"), graph, mu) == 1

    def test_sum_and_product(self, graph):
        mu = Assignment({"x": N("a")})
        term = TermSum(PropertyTerm("x", "k"), TermProduct(TermConst(2), TermConst(5)))
        assert evaluate_term(term, graph, mu) == 13

    def test_undefined_propagates(self, graph):
        mu = Assignment({"x": N("b")})
        term = TermSum(PropertyTerm("x", "k"), TermConst(1))
        assert evaluate_term(term, graph, mu) is None


class TestArithConditioned:
    def test_count_equals_constant(self):
        graph = chain_graph(4)
        pattern = ArithConditioned(
            parse_pattern("-[e]->{1,}"), Count("e"), TermConst(2)
        )
        matches = Evaluator(graph).eval_pattern(pattern, max_length=4)
        assert matches
        assert all(len(p) == 2 for p, _ in matches)

    def test_typing_checks_count_needs_group(self):
        pattern = ArithConditioned(
            parse_pattern("-[e]->"), Count("e"), TermConst(1)
        )
        with pytest.raises(GPCTypeError):
            infer_schema(pattern)

    def test_typing_checks_property_needs_singleton(self):
        pattern = ArithConditioned(
            parse_pattern("-[e]->{1,}"), PropertyTerm("e", "k"), TermConst(1)
        )
        with pytest.raises(GPCTypeError):
            infer_schema(pattern)

    def test_typing_checks_unbound(self):
        pattern = ArithConditioned(
            parse_pattern("->"), Count("zz"), TermConst(1)
        )
        with pytest.raises(GPCTypeError):
            infer_schema(pattern)

    def test_count_against_property(self):
        graph = (
            GraphBuilder()
            .node("a", want=2)
            .node("b")
            .node("c")
            .edge("a", "b", key="e1")
            .edge("b", "c", key="e2")
            .build()
        )
        pattern = ArithConditioned(
            parse_pattern("(u) -[e]->{1,} ()"),
            Count("e"),
            PropertyTerm("u", "want"),
        )
        matches = Evaluator(graph).eval_pattern(pattern, max_length=3)
        assert len(matches) == 1
        ((path, mu),) = matches
        assert len(path) == 2 and mu["u"] == N("a")


class TestDiophantine:
    def test_gadget_graph_shape(self):
        instance = DiophantineInstance(2, ((1, (1, 0)), (-1, (0, 1))))
        graph = build_gadget_graph(instance)
        # 2 variable nodes + 2 monomial nodes, loops on each.
        assert graph.num_nodes == 4
        assert len(graph.nodes_with_label("S")) == 1
        assert len(graph.directed_edges_with_label("A0")) == 1
        assert len(graph.directed_edges_with_label("B1")) == 1

    def test_pattern_is_well_typed(self):
        instance = DiophantineInstance(2, ((1, (1, 0)), (-1, (0, 1))))
        pattern = build_gadget_pattern(instance, loop_bound=3)
        schema = infer_schema(pattern)
        assert "x0" in schema and "y1" in schema

    def test_linear_equation(self):
        # x - y - 2 = 0, minimal natural solution (2, 0).
        instance = DiophantineInstance(
            2, ((1, (1, 0)), (-1, (0, 1)), (-2, (0, 0)))
        )
        solution = solve_bounded(instance, bound=4)
        assert solution is not None
        assert instance.evaluate(solution) == 0

    def test_quadratic_equation(self):
        # x^2 - 4 = 0 -> x = 2.
        instance = DiophantineInstance(1, ((1, (2,)), (-4, (0,))))
        solution = solve_bounded(instance, bound=3)
        assert solution == (2,)

    def test_unsolvable_within_bound(self):
        # x + 1 = 0 has no natural solution.
        instance = DiophantineInstance(1, ((1, (1,)), (1, (0,))))
        assert solve_bounded(instance, bound=3) is None

    def test_instance_validation(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            DiophantineInstance(0, ())
        with pytest.raises(WorkloadError):
            DiophantineInstance(1, ((0, (1,)),))
        with pytest.raises(WorkloadError):
            DiophantineInstance(2, ((1, (1,)),))


class TestLabelExpressions:
    def test_satisfaction(self):
        labels = frozenset({"A", "B"})
        assert satisfies_label_expr(labels, LabelAtom("A"))
        assert not satisfies_label_expr(labels, LabelAtom("C"))
        assert satisfies_label_expr(labels, LabelAnd(LabelAtom("A"), LabelAtom("B")))
        assert satisfies_label_expr(labels, LabelOr(LabelAtom("C"), LabelAtom("A")))
        assert satisfies_label_expr(labels, LabelNot(LabelAtom("C")))
        assert satisfies_label_expr(frozenset(), LabelWildcard())

    def test_node_pattern_with_expression(self):
        graph = (
            GraphBuilder()
            .node("a", "A")
            .node("b", "A", "B")
            .node("c", "C")
            .build()
        )
        pattern = NodeWithLabelExpr(
            LabelAnd(LabelAtom("A"), LabelNot(LabelAtom("B"))), variable="x"
        )
        matches = Evaluator(graph).eval_pattern(pattern)
        assert {mu["x"] for _, mu in matches} == {N("a")}

    def test_edge_pattern_with_expression(self):
        graph = (
            GraphBuilder()
            .edge("a", "b", "r", "fast", key="e1")
            .edge("b", "c", "r", key="e2")
            .build()
        )
        pattern = EdgeWithLabelExpr(
            Direction.FORWARD,
            LabelAnd(LabelAtom("r"), LabelAtom("fast")),
            variable="e",
        )
        matches = Evaluator(graph).eval_pattern(pattern)
        assert len(matches) == 1

    def test_composes_with_core_patterns(self):
        graph = (
            GraphBuilder()
            .node("a", "A")
            .node("b", "B")
            .edge("a", "b")
            .build()
        )
        pattern = ast.Concat(
            ast.Concat(
                NodeWithLabelExpr(LabelOr(LabelAtom("A"), LabelAtom("Z")), "x"),
                ast.forward(),
            ),
            ast.node("y"),
        )
        matches = Evaluator(graph).eval_pattern(pattern)
        assert len(matches) == 1

    def test_schema_inference(self):
        pattern = NodeWithLabelExpr(LabelWildcard(), "x")
        from repro.gpc.types import NODE

        assert infer_schema(pattern) == {"x": NODE}


class TestMixedRestrictors:
    def test_local_trail_subpattern(self, cycle4):
        pattern = RestrictedSubpattern(
            ast.Restrictor.TRAIL, parse_pattern("->{1,}")
        )
        matches = Evaluator(cycle4).eval_pattern(pattern, max_length=8)
        assert matches and all(is_trail(p) for p, _ in matches)

    def test_local_shortest_subpattern(self, diamond_graph):
        pattern = RestrictedSubpattern(
            ast.Restrictor.SHORTEST, parse_pattern("(:S) ->{1,} (:T)")
        )
        matches = Evaluator(diamond_graph).eval_pattern(pattern, max_length=4)
        assert {len(p) for p, _ in matches} == {1}

    def test_section7_anomaly_reproduced(self):
        report = section7_anomaly()
        assert report.true_shortest_length == 1
        assert report.local_semantics_answers == 0
        assert report.global_semantics_answers == 1
        assert report.global_witness_length == 2
        assert report.anomaly_present


class TestBagSemantics:
    def test_atomic_multiplicity_one(self, tiny_graph):
        bag = BagEvaluator(tiny_graph).evaluate(parse_pattern("(x)"), 0)
        assert set(bag.values()) == {1}

    def test_union_accumulates_multiplicity(self, tiny_graph):
        bag = BagEvaluator(tiny_graph).evaluate(parse_pattern("[->] + [->]"), 1)
        assert set(bag.values()) == {2}

    def test_set_semantics_is_support(self, diamond_graph):
        pattern = parse_pattern("(x:S) -> () -> (y:T)")
        bag = BagEvaluator(diamond_graph).evaluate(pattern, 2)
        engine = Evaluator(diamond_graph).eval_pattern(pattern, max_length=2)
        assert frozenset(bag) == engine

    def test_repetition_counts_factorizations(self):
        # Two parallel edges: ->{2,2} over a 2-chain with doubled first
        # hop has 2 derivations to the same endpoint pair but they are
        # distinct paths; multiplicities stay 1. A genuinely ambiguous
        # case: [->{1,2}]{1,2} matching a length-2 path can split 1+1
        # or take 2 at once, but bindings differ, so multiplicity 1.
        # True multiplicity > 1 arises via union overlap inside a
        # repetition body.
        graph = chain_graph(2)
        pattern = parse_pattern("[[-[e]->] + [-[e]->]]{2,2}")
        bag = BagEvaluator(graph).evaluate(pattern, 2)
        assert set(bag.values()) == {4}  # 2 choices per factor, 2 factors

    def test_edgeless_body_rejected(self, tiny_graph):
        with pytest.raises(CollectError):
            BagEvaluator(tiny_graph).evaluate(parse_pattern("(x){1,}"), 2)

    def test_query_restrictor_filters(self, cycle4):
        bag = BagEvaluator(cycle4).evaluate_query(parse_query("SIMPLE ->{1,}"))
        assert all(is_simple(path) for (path, _mu) in bag)


# ---------------------------------------------------------------------------
# Section 7 constructs in explain / pretty / fingerprints
# ---------------------------------------------------------------------------

_LABELS = LabelOr(LabelAtom("link"), LabelAtom("x"))
_HOP = ast.forward()

#: All five extension constructs, each as a one-construct pattern.
_EXTENSIONS = {
    "node-label-expr": NodeWithLabelExpr(_LABELS, "n"),
    "edge-label-expr": EdgeWithLabelExpr(Direction.FORWARD, _LABELS),
    "arith-conditioned": ArithConditioned(_HOP, TermConst(1), TermConst(1)),
    "restricted-subpattern": RestrictedSubpattern(ast.Restrictor.TRAIL, _HOP),
    "witness-marked": WitnessMarked(_HOP, "w"),
}


@pytest.mark.parametrize("name", sorted(_EXTENSIONS))
class TestExtensionsRender:
    """An extension has no concrete syntax: its ``repr`` stands in, at
    atom level — it used to be a bare ``TypeError`` out of ``explain``."""

    def test_pretty_renders_the_repr(self, name):
        extension = _EXTENSIONS[name]
        assert pretty(extension) == repr(extension)
        # Atom level: a postfix applies to it without brackets.
        assert pretty(ast.Repeat(extension, 1, 2)) == repr(extension) + "{1,2}"

    def test_canonical_query_is_total(self, name):
        query = ast.PatternQuery(ast.Restrictor.TRAIL, _EXTENSIONS[name])
        assert canonical_query(query) == "TRAIL " + repr(_EXTENSIONS[name])

    def test_explain_renders(self, name):
        query = ast.PatternQuery(ast.Restrictor.TRAIL, _EXTENSIONS[name])
        text = GraphService(transport_network(2, 3)).explain(query)
        assert text.startswith("plan: TRAIL " + repr(_EXTENSIONS[name]))


class TestExplainNamesTheRouteTaken:
    """A wrapper compiles as its child, so its NFA over-approximates and
    ``shortest`` runs the fallback; ``explain`` must say so, and why. A
    label expression compiles exactly and keeps the register route."""

    REASON = "(the automaton runs the child of WitnessMarked in its place)"

    def _query(self, upper, wrapped=True):
        hops = ast.Repeat(_EXTENSIONS["edge-label-expr"], 1, upper)
        return ast.PatternQuery(
            ast.Restrictor.SHORTEST,
            ast.concat(
                ast.node("x", "Hub"),
                WitnessMarked(hops, "w") if wrapped else hops,
                ast.node("y", "Station"),
            ),
        )

    def test_unbounded_extension_deepens(self):
        service = GraphService(transport_network(2, 3))
        text = service.explain(self._query(None))
        assert f"abstraction-guided deepening {self.REASON}" in text
        assert "register-NFA shortest" not in text
        assert "assignments:" not in text  # a clause of the register route
        # ... and the engine's own counters agree with the text.
        counters = EvalCounters()
        with use_counters(counters):
            answers = service.prepare(self._query(None)).execute(service.snapshot())
        assert len(answers) == 8
        assert counters.deepening_rounds > 0
        # No witness pass: the search ran on the NFA, for candidates.
        assert counters.witnesses == 0

    def test_a_label_expression_takes_the_register_route(self):
        service = GraphService(transport_network(2, 3))
        text = service.explain(self._query(None, wrapped=False))
        assert "register-NFA shortest;" in text
        assert "deepening" not in text.split("diagnostics:")[0]
        counters = EvalCounters()
        with use_counters(counters):
            answers = service.prepare(self._query(None, wrapped=False)).execute(
                service.snapshot()
            )
        assert len(answers) == 8
        assert counters.deepening_rounds == 0
        assert counters.witnesses == 8

    def test_static_explain_names_the_planned_route(self):
        # explain_query prints the route PatternPlan.route plans, not a
        # fixed "register-NFA" line for every bare SHORTEST.
        for upper, route in ((None, "abstraction-guided deepening"), (3, "bounded")):
            (strategy, _report), = explain_query(self._query(upper)).items
            assert strategy.startswith(route) and strategy.endswith(self.REASON)
            assert "register-NFA" not in strategy
            (strategy, _report), = explain_query(self._query(upper, False)).items
            assert strategy == "register-NFA shortest"
        plain = ast.concat(ast.node("x", "Hub"), ast.Repeat(_HOP, 1, None), ast.node("y"))
        (strategy, _report), = explain_query(
            ast.PatternQuery(ast.Restrictor.SHORTEST, plain)
        ).items
        assert strategy == "register-NFA shortest"

    def test_bounded_extension_is_evaluated_and_filtered(self):
        text = GraphService(transport_network(2, 3)).explain(self._query(3))
        assert f"bounded evaluation + shortest filter {self.REASON}" in text

    def test_a_compilable_pattern_keeps_the_register_route(self):
        text = GraphService(transport_network(2, 3)).explain(
            "SHORTEST (x:Hub) -[:link]->{1,} (y:Station)"
        )
        assert "register-NFA shortest" in text
        assert "assignments: register run" in text
