"""The register NFA of a pattern that holds a Section 7 construct.

A label expression is a test on one element's label set, so it compiles
exactly: a pattern with one takes the register route, and its answers
must equal the specification's (``reference_answers``) there, under
every restrictor, on pristine and derived snapshots, with and without a
start restriction.

A wrapper — ``ArithConditioned``, ``RestrictedSubpattern``,
``WitnessMarked`` — compiles as its child, so its NFA over-approximates
the pattern: the endpoint pairs it connects are a superset of the pairs
the pattern matches, and its minimum length per pair a lower bound on
the pattern's. The deepening route of ``shortest`` waits for those
pairs. That contract is checked against the specification, for the
wrappers over the Section 7 patterns and over generated core patterns,
and the checks have teeth: a label expression compiled as one of its
labels, a wrapper's child compiled in the other direction and a wrapper
marked exact each go red.

One rule picks the route: a pattern takes the register route iff its
NFA is exact and its accepting runs give its assignments
(``collect_requirement`` is ``None``).
"""

from __future__ import annotations

import sys
from pathlib import Path as _P

sys.path.insert(0, str(_P(__file__).parent.parent / "properties"))

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import assert_equal_reference, reference_answers
from strategies import small_graphs, well_typed_patterns

from repro.direction import Direction
from repro.errors import EvaluationLimitError
from repro.extensions.arithmetic import ArithConditioned, Count, TermConst
from repro.extensions.label_expressions import (
    EdgeWithLabelExpr,
    LabelAtom,
    LabelNot,
    LabelOr,
    NodeWithLabelExpr,
)
from repro.extensions.mixed_restrictors import RestrictedSubpattern, WitnessMarked
from repro.gpc import ast
from repro.gpc.collect import CollectMode
from repro.gpc.engine import EngineConfig, Evaluator, QueryPlan
from repro.gpc.parser import parse_pattern
from repro.gpc.planner import BOUNDED_FILTER, REGISTER
from repro.gpc.register_nfa import collect_requirement
from repro.gpc.semantics import _Limits
from repro.graph.builder import GraphBuilder
from repro.graph.generators import random_multigraph, transport_network
from repro.graph.ids import NodeId as N
from repro.graph.snapshot import GraphSnapshot
from repro.obs import EvalCounters, use_counters

_HORIZON = 4

_A_OR_B = LabelOr(LabelAtom("a"), LabelAtom("b"))
_NODE_A_OR_B = LabelOr(LabelAtom("A"), LabelAtom("B"))
_HOP = EdgeWithLabelExpr(Direction.FORWARD, _A_OR_B, "e")

#: Patterns over label expressions, on the ``small_graphs`` vocabulary
#: (node labels A/B, edge labels a/b): each compiles exactly.
_LABEL_PATTERNS = {
    "edge-label-expr": ast.concat(
        ast.node("x"), ast.Repeat(_HOP, 1, None), ast.node("y")
    ),
    "backward-edge-label-expr": ast.concat(
        ast.node("x", "A"),
        ast.Repeat(EdgeWithLabelExpr(Direction.BACKWARD, LabelAtom("a")), 1, 3),
        ast.node("y"),
    ),
    "node-label-expr": ast.concat(
        NodeWithLabelExpr(LabelNot(LabelAtom("A")), "x"),
        ast.Repeat(ast.forward(), 1, None),
        NodeWithLabelExpr(_NODE_A_OR_B, "y"),
    ),
}

#: Patterns over each wrapper: each NFA runs the wrapper's child.
_WRAPPED_PATTERNS = {
    "arith-conditioned": ArithConditioned(
        ast.concat(ast.node("x"), ast.Repeat(ast.forward("e"), 1, 3), ast.node("y")),
        Count("e"),
        TermConst(2),
    ),
    "restricted-subpattern": ast.concat(
        ast.node("x"),
        RestrictedSubpattern(
            ast.Restrictor.SHORTEST, ast.Repeat(ast.forward(label="a"), 1, None)
        ),
        ast.node("y", "B"),
    ),
    "witness-marked": ast.concat(
        ast.node("x"), WitnessMarked(ast.Repeat(_HOP, 1, 2), "w"), ast.node("y")
    ),
}

_EXTENSION_PATTERNS = {**_LABEL_PATTERNS, **_WRAPPED_PATTERNS}

#: Each wrapper around a pattern that does not bind ``__w``.
_WRAPPERS = {
    "arith-conditioned": lambda p: ArithConditioned(p, TermConst(1), TermConst(1)),
    "restricted-trail": lambda p: RestrictedSubpattern(ast.Restrictor.TRAIL, p),
    "restricted-shortest": lambda p: RestrictedSubpattern(ast.Restrictor.SHORTEST, p),
    "witness-marked": lambda p: WitnessMarked(p, "__w"),
}

_FLIPPED = {
    Direction.FORWARD: Direction.BACKWARD,
    Direction.BACKWARD: Direction.FORWARD,
    Direction.UNDIRECTED: Direction.UNDIRECTED,
}


def _check_over_approximation(graph, pattern):
    """Every pair the specification matches below the horizon is a
    candidate, at no more than its true minimum length. Returns how
    many pairs the specification matched."""
    query = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern)
    try:
        reference = reference_answers(
            graph, query, _HORIZON, limits=_Limits(max_intermediate_results=3_000)
        )
    except EvaluationLimitError:
        return 0
    candidates = Evaluator(graph)._deepening_candidates(pattern)
    for answer in reference:
        pair = (answer.path.src, answer.path.tgt)
        assert pair in candidates, (pair, pattern)
        assert candidates[pair] <= len(answer.path), (pair, pattern)
    return len({(a.path.src, a.path.tgt) for a in reference})


def _check_register_route(graph, pattern):
    """``pattern`` is served by its register NFA, and ``shortest`` of it
    answers as the specification does."""
    query = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern)
    evaluator = Evaluator(graph)
    assert evaluator.plan.register_nfa(pattern) is not None, pattern
    assert_equal_reference(
        reference_answers(graph, query, 8), query, {"graph": (graph, None)}, 8
    )


def _graphs():
    yield transport_network(2, 3)
    for seed in range(12):
        yield random_multigraph(
            4, 7, 1, ("A", "B"), ("a", "b"), ("k", "m"), value_range=3, seed=seed
        )


def _derived(graph):
    """A snapshot of ``graph`` derived over a node added with label
    ``B``, an ``a`` edge and a ``b`` edge into it and a relabelled
    edge: overlay elements and patched rows the label tests must read
    through the view accessors."""
    base = graph.snapshot()
    first = min(graph.nodes)
    fresh = graph.add_node("fresh", labels=("B",))
    graph.add_edge("fa", first, fresh, labels=("a",))
    graph.add_edge("fb", fresh, first, labels=("b",))
    edge = min(graph.directed_edges, key=repr)
    source, target = graph.source(edge), graph.target(edge)
    graph.remove_edge(edge)
    graph.add_edge("relabelled", source, target, labels=("b",))
    derived = GraphSnapshot.derive(base, graph.deltas_since(base.version))
    assert derived.overlay_ops
    return derived


class TestLabelExpressionsTakeTheRegisterRoute:
    @pytest.mark.parametrize("name", sorted(_LABEL_PATTERNS))
    def test_shortest_equals_the_reference(self, name):
        for graph in _graphs():
            _check_register_route(graph, _LABEL_PATTERNS[name])

    @pytest.mark.parametrize(
        "restrictor",
        [ast.Restrictor.TRAIL, ast.Restrictor.SIMPLE, ast.Restrictor.SHORTEST_TRAIL],
        ids=str,
    )
    @pytest.mark.parametrize("name", ["edge-label-expr", "node-label-expr"])
    def test_walks_explain_and_equal_the_reference(self, restrictor, name):
        query = ast.PatternQuery(restrictor, _LABEL_PATTERNS[name])
        text = Evaluator(transport_network(2, 3)).plan.explain(query)
        assert f"register-NFA {restrictor.mode} walk" in text
        for seed in range(6):
            graph = random_multigraph(
                4, 6, 1, ("A", "B"), ("a", "b"), ("k", "m"), value_range=3, seed=seed
            )
            views = {"pristine": graph.snapshot()}
            references = {"pristine": reference_answers(graph, query, _HORIZON)}
            views["derived"] = _derived(graph)
            references["derived"] = reference_answers(graph, query, _HORIZON)
            # Every trail and simple path is no longer than |E|.
            horizon = graph.num_edges
            cell = frozenset(sorted(graph.nodes)[::2])
            for name, view in views.items():
                for restriction in (None, cell):
                    assert_equal_reference(
                        references[name], query, {name: (view, None)}, horizon, restriction
                    )

    def test_the_six_loop_graph_resolves_without_deepening(self):
        # Six ``a`` self-loops on ``a`` and one unlabelled edge to ``b``:
        # no ``a|b`` walk reaches ``b``, and nothing may wait for one.
        builder = GraphBuilder().node("a").node("b")
        for _ in range(6):
            builder.edge("a", "a", "a")
        graph = builder.edge("a", "b").build()
        query = ast.PatternQuery(
            ast.Restrictor.SHORTEST, _LABEL_PATTERNS["edge-label-expr"]
        )
        counters = EvalCounters()
        with use_counters(counters):
            answers = Evaluator(graph, EngineConfig()).evaluate(query)
        assert answers == reference_answers(graph, query, _HORIZON)
        assert len(answers) == 6
        assert {(a.path.src, a.path.tgt) for a in answers} == {(N("a"), N("a"))}
        assert counters.deepening_rounds == 0

    def test_an_edgeless_body_that_binds_stays_off_the_register_route(self):
        pattern = ast.concat(
            ast.Repeat(NodeWithLabelExpr(_NODE_A_OR_B, "x"), 1, 3),
            ast.forward(),
            ast.node("y"),
        )
        query = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern)
        for graph in _graphs():
            evaluator = Evaluator(graph)
            route, nfa, why = evaluator.plan.pattern_plan(pattern).route
            assert (route, nfa, why) == (
                BOUNDED_FILTER,
                None,
                "GPC022: repeat body binds x and may match an edgeless path",
            )
            assert evaluator.evaluate(query) == reference_answers(graph, query, 8)



class TestWrappersOverApproximate:
    @pytest.mark.parametrize("name", sorted(_WRAPPED_PATTERNS))
    def test_for_every_wrapper(self, name):
        pattern = _WRAPPED_PATTERNS[name]
        assert not Evaluator(transport_network(2, 3)).plan.pattern_plan(pattern).nfa.exact
        matched = sum(_check_over_approximation(graph, pattern) for graph in _graphs())
        assert matched > 0  # the check looked at something

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(), well_typed_patterns(max_depth=3), st.sampled_from(sorted(_WRAPPERS)))
    def test_for_generated_core_patterns_in_each_wrapper(self, graph, pattern, wrapper):
        _check_over_approximation(graph, _WRAPPERS[wrapper](pattern))

    def test_the_planner_seeds_and_the_start_restriction_narrow_them(self):
        graph = transport_network(2, 3)
        pattern = ast.concat(
            ast.node("x", "Hub"),
            WitnessMarked(
                ast.Repeat(
                    EdgeWithLabelExpr(Direction.FORWARD, LabelAtom("link")), 1, None
                ),
                "w",
            ),
            ast.node("y", "Station"),
        )
        evaluator = Evaluator(graph)
        hub = next(iter(graph.nodes_with_label("Hub")))
        candidates = evaluator._deepening_candidates(pattern)
        assert {start for start, _end in candidates} == {hub}
        assert len(candidates) == graph.num_nodes
        # A cluster shard computes the candidates of its own cell.
        assert evaluator._deepening_candidates(pattern, frozenset({hub})) == candidates
        others = frozenset(graph.nodes) - {hub}
        assert evaluator._deepening_candidates(pattern, others) == {}
        # Without the planner every node seeds a search, and the node
        # tests of the NFA find the same pairs.
        unplanned = Evaluator(graph, EngineConfig(use_planner=False))
        assert unplanned._deepening_candidates(pattern) == candidates


class TestTheCheckHasTeeth:
    """A label expression or a wrapper compiled wrongly goes red."""

    def test_a_label_expression_compiled_as_one_of_its_labels_is_caught(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            EdgeWithLabelExpr,
            "compile_register_ext",
            lambda self, builder, compile_child: builder.edge(
                self.direction, "a", self.variable
            ),
        )
        with pytest.raises(AssertionError):
            for graph in _graphs():
                _check_register_route(graph, _LABEL_PATTERNS["edge-label-expr"])

    def test_a_wrapper_child_compiled_in_the_other_direction_is_caught(
        self, monkeypatch
    ):
        def flipped(pattern, children):
            if isinstance(pattern, ast.EdgePattern):
                return ast.EdgePattern(_FLIPPED[pattern.direction], pattern.descriptor)
            return ast.with_children(pattern, children)

        def compile_flipped(self, builder, compile_child):
            builder.approximated.append(type(self).__name__)
            return compile_child(ast.fold(self.pattern, flipped))

        monkeypatch.setattr(
            RestrictedSubpattern, "compile_register_ext", compile_flipped
        )
        with pytest.raises(AssertionError):
            for graph in _graphs():
                _check_over_approximation(
                    graph, _WRAPPED_PATTERNS["restricted-subpattern"]
                )

    def test_an_arithmetic_condition_marked_exact_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            ArithConditioned,
            "compile_register_ext",
            lambda self, builder, compile_child: compile_child(self.pattern),
        )
        query = ast.PatternQuery(
            ast.Restrictor.SHORTEST, _WRAPPED_PATTERNS["arith-conditioned"]
        )
        with pytest.raises(AssertionError):
            for graph in _graphs():
                assert Evaluator(graph).evaluate(query) == reference_answers(
                    graph, query, 8
                )


class TestShortestOfAnExtension:
    @pytest.mark.parametrize("name", sorted(_EXTENSION_PATTERNS))
    def test_shortest_of_an_extension_equals_the_reference(self, name):
        pattern = _EXTENSION_PATTERNS[name]
        query = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern)
        config = EngineConfig(shortest_deepening_limit=8, lenient_shortest=True)
        for graph in _graphs():
            reference = reference_answers(graph, query, 8)
            assert Evaluator(graph, config).evaluate(query) == reference

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(), st.sampled_from(sorted(_EXTENSION_PATTERNS)))
    # One `A` node with eight self-loops: no node can bind `x:!A`, and
    # deepening to length 8 used to build millions of walks first.
    @example(
        random_multigraph(
            1, 6, 2, node_labels=("A", "B"), edge_labels=("a", "b"),
            property_keys=("k", "m"), value_range=3, seed=465,
        ),
        "node-label-expr",
    )
    def test_a_restricted_evaluation_is_the_restricted_answer_set(self, graph, name):
        query = ast.PatternQuery(ast.Restrictor.SHORTEST, _EXTENSION_PATTERNS[name])
        config = EngineConfig(shortest_deepening_limit=8, lenient_shortest=True)
        evaluator = Evaluator(graph, config)
        everything = evaluator.evaluate(query)
        nodes = sorted(graph.nodes)
        cell = frozenset(nodes[::2])
        assert evaluator.evaluate(query, start_restriction=cell) == {
            a for a in everything if a.path.src in cell
        }


class TestOneRouteRule:
    @settings(max_examples=150, deadline=None)
    @given(
        well_typed_patterns(max_depth=3),
        st.sampled_from(["", *sorted(_WRAPPERS)]),
        st.sampled_from(list(CollectMode)),
    )
    @example(parse_pattern("(x) [(z)]{1,} -> (y)"), "", CollectMode.GROUPING)
    @example(parse_pattern("(x) [()]{1,2} -> (y)"), "", CollectMode.RUNTIME)
    @example(parse_pattern("(x) [()]{1,2} -> (y)"), "", CollectMode.GROUPING)
    @example(parse_pattern("(x) [(z)]{1,} -> (y)"), "witness-marked", CollectMode.GROUPING)
    def test_the_register_route_is_exact_and_run_complete(self, pattern, wrapper, mode):
        if wrapper:
            pattern = _WRAPPERS[wrapper](pattern)
        record = QueryPlan(EngineConfig(collect_mode=mode)).pattern_plan(pattern)
        route, nfa, why = record.route
        register = record.nfa.exact and collect_requirement(pattern, mode) is None
        assert (route is REGISTER) == register
        if register:
            assert (nfa, why) == (record.nfa, None)
        else:
            assert nfa is None and why
