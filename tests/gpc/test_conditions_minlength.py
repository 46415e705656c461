"""Condition satisfaction (mu |= theta) and the min-length analysis."""

import pytest

from repro.errors import CollectError, EvaluationError
from repro.graph.builder import GraphBuilder
from repro.graph.ids import NodeId as N
from repro.gpc.assignments import Assignment
from repro.gpc.conditions import satisfies
from repro.gpc.conditions_ast import (
    And,
    Not,
    Or,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)
from repro.gpc.minlength import (
    iterates_edgeless_body,
    max_path_length,
    may_match_edgeless,
    min_path_length,
    validate_approach1,
)
from repro.gpc.parser import parse_pattern
from repro.gpc.values import Nothing


@pytest.fixture
def graph():
    return (
        GraphBuilder()
        .node("a", "P", k=1, name="Ann")
        .node("b", "P", k=1)
        .node("c", "P", k=2)
        .build()
    )


class TestAtomicConditions:
    def test_const_equal(self, graph):
        mu = Assignment({"x": N("a")})
        assert satisfies(graph, mu, PropertyEqualsConst("x", "k", 1))
        assert not satisfies(graph, mu, PropertyEqualsConst("x", "k", 2))

    def test_undefined_property_is_false(self, graph):
        mu = Assignment({"x": N("b")})
        assert not satisfies(graph, mu, PropertyEqualsConst("x", "name", "Ann"))

    def test_property_equals_property(self, graph):
        mu = Assignment({"x": N("a"), "y": N("b")})
        assert satisfies(graph, mu, PropertyEqualsProperty("x", "k", "y", "k"))
        mu2 = Assignment({"x": N("a"), "y": N("c")})
        assert not satisfies(graph, mu2, PropertyEqualsProperty("x", "k", "y", "k"))

    def test_both_sides_undefined_is_false(self, graph):
        # delta undefined on both sides: condition is false, not true.
        mu = Assignment({"x": N("b"), "y": N("c")})
        assert not satisfies(
            graph, mu, PropertyEqualsProperty("x", "name", "y", "name")
        )


class TestBooleanConnectives:
    def test_and_or(self, graph):
        mu = Assignment({"x": N("a")})
        k1 = PropertyEqualsConst("x", "k", 1)
        k2 = PropertyEqualsConst("x", "k", 2)
        assert satisfies(graph, mu, And(k1, k1))
        assert not satisfies(graph, mu, And(k1, k2))
        assert satisfies(graph, mu, Or(k2, k1))
        assert not satisfies(graph, mu, Or(k2, k2))

    def test_negation_is_complement(self, graph):
        mu = Assignment({"x": N("a")})
        assert satisfies(graph, mu, Not(PropertyEqualsConst("x", "k", 2)))

    def test_negation_of_undefined_is_true(self, graph):
        # The paper's semantics: mu |= not theta iff mu |/= theta, so
        # negating an undefined comparison yields TRUE.
        mu = Assignment({"x": N("b")})
        assert satisfies(graph, mu, Not(PropertyEqualsConst("x", "name", "Ann")))


class TestConditionErrors:
    def test_unbound_variable(self, graph):
        with pytest.raises(EvaluationError):
            satisfies(graph, Assignment({}), PropertyEqualsConst("x", "k", 1))

    def test_non_singleton_value(self, graph):
        mu = Assignment({"x": Nothing})
        with pytest.raises(EvaluationError):
            satisfies(graph, mu, PropertyEqualsConst("x", "k", 1))


class TestMinLength:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("()", 0),
            ("->", 1),
            ("(x) -> (y)", 1),
            ("-> <- ~", 3),
            ("[->] + [()]", 0),
            ("[-> ->] + [->]", 1),
            ("->{2,5}", 2),
            ("->{0,5}", 0),
            ("[-> ->]{3,}", 6),
            ("[() ->] << a.k = 1 >>", 1),
            ("[[->] + [()]]{4,4}", 0),
        ],
    )
    def test_min(self, text, expected):
        pattern = parse_pattern(text.replace("a.k", "x.k").replace("(x)", "(x)"))
        # conditions need bound vars; rewrite the conditioned case
        if "<<" in text:
            pattern = parse_pattern("[(x) ->] << x.k = 1 >>")
        assert min_path_length(pattern) == expected

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("()", 0),
            ("->", 1),
            ("-> <-", 2),
            ("[->] + [-> ->]", 2),
            ("->{2,5}", 5),
            ("->{2,}", None),
            ("()*", 0),
            ("[()]{0,}", 0),
        ],
    )
    def test_max(self, text, expected):
        assert max_path_length(parse_pattern(text)) == expected

    def test_may_match_edgeless(self):
        assert may_match_edgeless(parse_pattern("()"))
        assert not may_match_edgeless(parse_pattern("->"))
        assert may_match_edgeless(parse_pattern("->{0,3}"))


class TestApproach1Validation:
    def test_edge_body_allowed(self):
        validate_approach1(parse_pattern("->{0,}"))

    def test_node_body_rejected(self):
        with pytest.raises(CollectError):
            validate_approach1(parse_pattern("(x){1,2}"))

    def test_union_with_edgeless_branch_rejected(self):
        with pytest.raises(CollectError):
            validate_approach1(parse_pattern("[[->] + [()]]{1,2}"))

    def test_nested_offender_found(self):
        with pytest.raises(CollectError):
            validate_approach1(parse_pattern("(a) -> [()]{1,3} (b)"))

    def test_zero_width_repetition_of_edges_ok(self):
        # pi{0,m} is fine as long as the body itself needs an edge.
        validate_approach1(parse_pattern("[-> <-]{0,5}"))

    def test_repetition_of_positive_repetition_ok(self):
        validate_approach1(parse_pattern("[->{1,2}]{0,}"))

    def test_never_iterating_repetition_is_still_rejected(self):
        # The GQL rule is syntactic: `(x){0,0}` is refused although it
        # never iterates — which is all that lint GPC022 asks
        # (`iterates_edgeless_body`).
        never = parse_pattern("(x){0,0}")
        assert not iterates_edgeless_body(never)
        assert iterates_edgeless_body(parse_pattern("(x){0,1}"))
        assert not iterates_edgeless_body(parse_pattern("->{0,}"))
        with pytest.raises(CollectError):
            validate_approach1(never)

    def test_repetition_of_star_rejected(self):
        # inner star may match edgeless -> outer repetition forbidden.
        with pytest.raises(CollectError):
            validate_approach1(parse_pattern("[->*]{1,2}"))
