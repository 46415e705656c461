"""The erasure of a pattern (``ast.erase``) and the candidates the
deepening route of ``shortest`` takes from it.

The contract is an over-approximation: the endpoint pairs the erasure
connects are a superset of the pairs the pattern matches, and the
erasure's minimum length per pair is a lower bound on the pattern's.
It is checked against the specification (``reference_answers``), for
the Section 7 constructs and for generated core patterns, and it has
teeth: an ``erase_ext`` that keeps too much — one label of a label
disjunction, the wrong direction — is caught by the same check.
"""

from __future__ import annotations

import sys
from pathlib import Path as _P

sys.path.insert(0, str(_P(__file__).parent.parent / "properties"))

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import reference_answers
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
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_pattern
from repro.gpc.semantics import _Limits
from repro.graph.generators import random_multigraph, transport_network

_HORIZON = 4

_A_OR_B = LabelOr(LabelAtom("a"), LabelAtom("b"))
_HOP = EdgeWithLabelExpr(Direction.FORWARD, _A_OR_B, "e")

#: Patterns over each Section 7 construct, on the ``small_graphs``
#: vocabulary (node labels A/B, edge labels a/b).
_EXTENSION_PATTERNS = {
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
        NodeWithLabelExpr(LabelOr(LabelAtom("A"), LabelAtom("B")), "y"),
    ),
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
    candidates = Evaluator(graph)._erased_candidates(pattern)
    for answer in reference:
        pair = (answer.path.src, answer.path.tgt)
        assert pair in candidates, (pair, pattern)
        assert candidates[pair] <= len(answer.path), (pair, pattern)
    return len({(a.path.src, a.path.tgt) for a in reference})


def _graphs():
    yield transport_network(2, 3)
    for seed in range(12):
        yield random_multigraph(
            4, 7, 1, ("A", "B"), ("a", "b"), ("k", "m"), value_range=3, seed=seed
        )


class TestErase:
    def test_drops_conditions_and_variables_and_keeps_the_rest(self):
        pattern = parse_pattern(
            "[(x:A) [-[e:a]-> + <-[f]-]{1,3} (y)] << x.k = y.k >>"
        )
        assert ast.erase(pattern) == parse_pattern("(:A) [-[:a]-> + <-]{1,3} ()")

    def test_what_is_left_binds_and_reads_nothing(self):
        for pattern in _EXTENSION_PATTERNS.values():
            erased = ast.erase(pattern)
            assert ast.variables(erased) == frozenset()
            assert not any(
                isinstance(sub, (ast.Conditioned, ast.PatternExtension))
                for sub in ast.iter_subpatterns(erased)
            )

    def test_an_erased_pattern_is_its_own_erasure(self):
        erased = ast.erase(parse_pattern("(x) [-[e:a]->]{1,} (y:B)"))
        assert ast.erase(erased) == erased

    def test_each_extension_supplies_a_core_pattern(self):
        assert ast.erase(NodeWithLabelExpr(_A_OR_B, "n")) == ast.NodePattern()
        assert ast.erase(_HOP) == ast.EdgePattern(Direction.FORWARD)
        hop = ast.forward("e", "a")
        for wrapper in (
            ArithConditioned(hop, TermConst(1), TermConst(1)),
            RestrictedSubpattern(ast.Restrictor.TRAIL, hop),
            WitnessMarked(hop, "w"),
        ):
            assert ast.erase(wrapper) == ast.forward(label="a")

    def test_a_chain_higher_than_the_recursion_limit_erases(self):
        chain = ast.concat(*[ast.forward("e")] * 5000)
        erased = ast.erase(chain)
        assert sum(1 for _ in ast.iter_subpatterns(erased)) == 2 * 5000 - 1


class TestCandidatesOverApproximate:
    @pytest.mark.parametrize("name", sorted(_EXTENSION_PATTERNS))
    def test_for_every_extension_construct(self, name):
        matched = sum(
            _check_over_approximation(graph, _EXTENSION_PATTERNS[name])
            for graph in _graphs()
        )
        assert matched > 0  # the check looked at something

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(), well_typed_patterns(max_depth=3))
    def test_for_generated_core_patterns(self, graph, pattern):
        _check_over_approximation(graph, pattern)

    def test_the_planner_seeds_and_the_start_restriction_narrow_them(self):
        graph = transport_network(2, 3)
        pattern = ast.concat(
            ast.node("x", "Hub"),
            ast.Repeat(
                EdgeWithLabelExpr(Direction.FORWARD, LabelAtom("link")), 1, None
            ),
            ast.node("y", "Station"),
        )
        evaluator = Evaluator(graph)
        hub = next(iter(graph.nodes_with_label("Hub")))
        candidates = evaluator._erased_candidates(pattern)
        assert {start for start, _end in candidates} == {hub}
        assert len(candidates) == graph.num_nodes
        # A cluster shard computes the candidates of its own cell.
        assert evaluator._erased_candidates(pattern, frozenset({hub})) == candidates
        others = frozenset(graph.nodes) - {hub}
        assert evaluator._erased_candidates(pattern, others) == {}
        # Without the planner every node seeds a search, and the labels
        # the erasure keeps find the same pairs.
        unplanned = Evaluator(graph, EngineConfig(use_planner=False))
        assert unplanned._erased_candidates(pattern) == candidates


class TestTheCheckHasTeeth:
    """An erasure that is not an over-approximation goes red."""

    def test_an_edge_erased_to_one_of_its_labels_is_caught(self, monkeypatch):
        monkeypatch.setattr(
            EdgeWithLabelExpr,
            "erase_ext",
            lambda self, erased: ast.EdgePattern(
                self.direction, ast.Descriptor(label="a")
            ),
        )
        with pytest.raises(AssertionError):
            for graph in _graphs():
                _check_over_approximation(
                    graph, _EXTENSION_PATTERNS["edge-label-expr"]
                )

    def test_an_edge_erased_to_the_other_direction_is_caught(self, monkeypatch):
        flipped = {
            Direction.FORWARD: Direction.BACKWARD,
            Direction.BACKWARD: Direction.FORWARD,
        }
        monkeypatch.setattr(
            EdgeWithLabelExpr,
            "erase_ext",
            lambda self, erased: ast.EdgePattern(flipped[self.direction]),
        )
        with pytest.raises(AssertionError):
            for graph in _graphs():
                _check_over_approximation(
                    graph, _EXTENSION_PATTERNS["backward-edge-label-expr"]
                )

    def test_a_kept_condition_is_caught(self, monkeypatch):
        # A node label expression erased to one of its labels.
        monkeypatch.setattr(
            NodeWithLabelExpr,
            "erase_ext",
            lambda self, erased: ast.node(label="A"),
        )
        with pytest.raises(AssertionError):
            for graph in _graphs():
                _check_over_approximation(
                    graph, _EXTENSION_PATTERNS["node-label-expr"]
                )


class TestDeepeningOnTheErasure:
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
