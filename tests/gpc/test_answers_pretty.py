"""The Answer type, projection, and pretty-printer edge cases."""

import pytest

from repro.errors import EvaluationError
from repro.graph.ids import DirectedEdgeId as E, NodeId as N
from repro.graph.paths import Path
from repro.gpc import ast
from repro.gpc.answers import Answer, project
from repro.gpc.assignments import Assignment
from repro.gpc.conditions_ast import (
    And,
    Not,
    Or,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)
from repro.gpc.parser import parse_condition, parse_pattern, parse_query
from repro.gpc.pretty import pretty, pretty_condition


def answer(path_elems, **bindings):
    return Answer((Path.of(*path_elems),), Assignment(bindings))


class TestAnswer:
    def test_single_path_access(self):
        a = answer([N("u")], x=N("u"))
        assert a.path == Path.node(N("u"))
        assert a["x"] == N("u")

    def test_multi_path_access_guarded(self):
        a = Answer(
            (Path.node(N("u")), Path.node(N("v"))), Assignment({})
        )
        with pytest.raises(EvaluationError):
            _ = a.path

    def test_empty_paths_rejected(self):
        with pytest.raises(EvaluationError):
            Answer((), Assignment({}))

    def test_combine_unifies(self):
        a = answer([N("u")], x=N("u"))
        b = answer([N("v")], x=N("u"), y=N("v"))
        combined = a.combine(b)
        assert combined is not None
        assert len(combined.paths) == 2
        assert combined["y"] == N("v")

    def test_combine_conflict_none(self):
        a = answer([N("u")], x=N("u"))
        b = answer([N("v")], x=N("v"))
        assert a.combine(b) is None

    def test_hashable(self):
        a = answer([N("u")], x=N("u"))
        b = answer([N("u")], x=N("u"))
        assert len({a, b}) == 1

    def test_immutable(self):
        a = answer([N("u")], x=N("u"))
        with pytest.raises(AttributeError):
            a.paths = ()
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_equality_is_paths_and_assignment(self):
        a = answer([N("u")], x=N("u"))
        assert a != answer([N("u")], x=N("v"))
        assert a != answer([N("v")], x=N("u"))
        assert a != (a.paths, a.assignment)

    def test_survives_pickle(self):
        import pickle

        path = Path.of(N("u"), E("e"), N("v"))
        a = Answer((path, Path.node(N("v"))), Assignment({"x": N("u"), "p": path}))
        copied = pickle.loads(pickle.dumps(a))
        assert copied == a and hash(copied) == hash(a)
        assert copied.paths == a.paths and copied.assignment == a.assignment


class TestProject:
    def test_project(self):
        answers = [
            answer([N("u")], x=N("u"), y=N("v")),
            answer([N("w")], x=N("w"), y=N("v")),
        ]
        assert project(answers, ("x",)) == frozenset({(N("u"),), (N("w"),)})
        assert project(answers, ("y", "x")) == frozenset(
            {(N("v"), N("u")), (N("v"), N("w"))}
        )


class TestPrettyConditions:
    @pytest.mark.parametrize(
        "condition",
        [
            PropertyEqualsConst("x", "k", 5),
            PropertyEqualsConst("x", "k", -5),
            PropertyEqualsConst("x", "k", 1.5),
            PropertyEqualsConst("x", "k", True),
            PropertyEqualsConst("x", "k", False),
            PropertyEqualsConst("x", "name", "Ann"),
            PropertyEqualsConst("x", "name", "O'Hara"),
            PropertyEqualsConst("x", "name", "back\\slash"),
            PropertyEqualsProperty("x", "a", "y", "b"),
            And(
                PropertyEqualsConst("x", "a", 1),
                Or(
                    PropertyEqualsConst("x", "b", 2),
                    Not(PropertyEqualsConst("x", "c", 3)),
                ),
            ),
        ],
    )
    def test_condition_round_trip(self, condition):
        assert parse_condition(pretty_condition(condition)) == condition


class TestPrettyPatterns:
    @pytest.mark.parametrize(
        "text",
        [
            "(x:A) -> (y)",
            "[(a) + (b)] (c)",
            "(a) [(b) + (c)]",
            "[(a) (b)]{1,2}",
            "->* <-{2,} ~{3}",
            "[[(x) ->] + [<-]]{0,2}",
            "[(x) -[e]-> (y)] << x.k = y.k >>",
        ],
    )
    def test_round_trip_via_text(self, text):
        pattern = parse_pattern(text)
        assert parse_pattern(pretty(pattern)) == pattern

    def test_union_right_nesting_bracketed(self):
        # Right-nested union must print brackets to survive re-parsing
        # (the parser is left-associative).
        pattern = ast.Union(
            ast.node("a"), ast.Union(ast.node("b"), ast.node("c"))
        )
        assert parse_pattern(pretty(pattern)) == pattern

    def test_concat_right_nesting_bracketed(self):
        pattern = ast.Concat(
            ast.node("a"), ast.Concat(ast.node("b"), ast.node("c"))
        )
        assert parse_pattern(pretty(pattern)) == pattern

    def test_query_forms(self):
        for text in [
            "TRAIL (x)",
            "p = SHORTEST TRAIL (x) -> (y)",
            "TRAIL (x), SIMPLE (y)",
        ]:
            query = parse_query(text)
            assert parse_query(pretty(query)) == query
