"""``trail`` / ``simple`` prune inside the bounded evaluator.

Both predicates hold of every contiguous sub-path of a path they hold
of, so the evaluator serving a restrictor drops a failing path where it
is built instead of carrying every walk up to ``|E|`` (resp. ``|N|``)
and filtering at the end. The answers are the specification's
(``reference_answers``: unpruned, filtered afterwards); what changes is
that ``{1,}`` under a restrictor is affordable.
"""

from __future__ import annotations

import time

import pytest

from reference import reference_answers

from repro.direction import Direction
from repro.extensions.arithmetic import ArithConditioned, TermConst
from repro.extensions.label_expressions import EdgeWithLabelExpr, LabelAtom
from repro.extensions.mixed_restrictors import RestrictedSubpattern
from repro.gpc import ast
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_pattern, parse_query
from repro.gpc.semantics import PATH_PREDICATES, BoundedEvaluator
from repro.graph.builder import GraphBuilder
from repro.graph.generators import random_multigraph, transport_network
from repro.graph.paths import is_simple, is_trail
from repro.obs import deadline_scope
from repro.service import GraphService

REACH = "(x:Hub) -[:link]->{1,} (y:Station)"


class TestUnboundedRepetitionIsAffordable:
    """ROADMAP item 2's finding, on 13 nodes and 24 edges: ``SIMPLE``
    took 10.5 s and ``TRAIL`` 158 s before ``EvaluationLimitError``."""

    @pytest.mark.parametrize(
        "restrictor, answers", [("SIMPLE", 12), ("TRAIL", 1722)]
    )
    def test_transport_network_answers_well_inside_its_deadline(
        self, restrictor, answers
    ):
        service = GraphService(transport_network(3, 4))
        started = time.monotonic()
        with deadline_scope(5.0):
            found = service.evaluate(f"{restrictor} {REACH}")
        assert len(found) == answers
        assert time.monotonic() - started < 2.5
        predicate = PATH_PREDICATES[restrictor.lower()]
        assert all(predicate(answer.path) for answer in found)

    @pytest.mark.parametrize(
        "restrictor", ["SIMPLE", "TRAIL", "SHORTEST SIMPLE", "SHORTEST TRAIL"]
    )
    def test_equal_to_the_reference_where_the_oracle_finishes(self, restrictor):
        graph = transport_network(2, 3)
        query = parse_query(f"{restrictor} {REACH}")
        reference = reference_answers(graph, query, graph.num_edges)
        assert reference
        assert Evaluator(graph).evaluate(query) == reference


class TestTheFinalFilterStays:
    """An atomic match is built by no concatenation and no power step:
    a single self-loop edge is a trail but not a simple path."""

    @staticmethod
    def _loop():
        return (
            GraphBuilder()
            .node("a")
            .node("b")
            .edge("a", "a", "loop")
            .edge("a", "b", "hop")
            .build()
        )

    @pytest.mark.parametrize("text", ["->", "->{1,}", "[-> + <-]{1,2}", "(x) -> (y)"])
    def test_a_self_loop_is_not_simple(self, text):
        graph = self._loop()
        query = ast.PatternQuery(ast.Restrictor.SIMPLE, parse_pattern(text))
        answers = Evaluator(graph).evaluate(query)
        assert answers == reference_answers(graph, query, graph.num_nodes)
        assert answers and all(is_simple(a.path) for a in answers)

    def test_a_self_loop_is_a_trail_once(self):
        graph = self._loop()
        query = parse_query("TRAIL ->{1,}")
        answers = Evaluator(graph).evaluate(query)
        assert answers == reference_answers(graph, query, graph.num_edges)
        assert sorted(len(a.path) for a in answers) == [1, 1, 2]


class TestThePruningEvaluator:
    @pytest.mark.parametrize("mode", sorted(PATH_PREDICATES))
    @pytest.mark.parametrize(
        "text",
        [
            "-> ->",
            "->{1,} <-{1,}",
            "(x) -[e]-> (y) [<- + ~]{1,2} (z)",
            "[->{1,3} (y) ->] << y.k = 1 >>",
        ],
    )
    def test_a_concatenation_holds_exactly_the_passing_matches(self, mode, text):
        # Every match of these patterns is built by concatenating two
        # paths with edges, so nothing failing is left for the caller.
        keep = PATH_PREDICATES[mode]
        pattern = parse_pattern(text)
        dropped = 0
        for graph in self._graphs():
            plain = BoundedEvaluator(graph).evaluate(pattern, 5)
            pruned = BoundedEvaluator(graph, keep=keep).evaluate(pattern, 5)
            assert pruned == {m for m in plain if keep(m[0])}
            dropped += len(plain) - len(pruned)
        assert dropped > 0

    @pytest.mark.parametrize("mode", sorted(PATH_PREDICATES))
    @pytest.mark.parametrize(
        "text", ["->", "->{1,}", "[-> + ~]{1,3}", "(x) ->{1,} (y)"]
    )
    def test_an_atom_or_a_first_power_may_keep_a_failing_match(self, mode, text):
        keep = PATH_PREDICATES[mode]
        pattern = parse_pattern(text)
        for graph in self._graphs():
            plain = BoundedEvaluator(graph).evaluate(pattern, 5)
            pruned = BoundedEvaluator(graph, keep=keep).evaluate(pattern, 5)
            assert {m for m in plain if keep(m[0])} <= pruned <= plain

    @staticmethod
    def _graphs():
        for seed in range(6):
            yield random_multigraph(
                4, 6, 1, ("A", "B"), ("a", "b"), ("k",), value_range=2, seed=seed
            )

    def test_the_default_is_the_plain_denotation(self):
        graph = transport_network(2, 3)
        pattern = parse_pattern(REACH)
        evaluator = BoundedEvaluator(graph)
        assert evaluator.keep is None
        walks = evaluator.evaluate(pattern, 5)
        assert any(not is_trail(path) for path, _ in walks)


class TestExtensionsSeeTheUnprunedDenotation:
    """An extension construct need not be monotone in its sub-matches.
    A local ``shortest`` is not: drop a pair's shortest sub-match because
    it repeats an edge and a longer one takes its place."""

    @staticmethod
    def _square():
        # u -> v <- w -> x <- u: from u back to u there is the walk
        # u -> v <- u (one edge twice) and the trail round the square.
        return (
            GraphBuilder()
            .node("u")
            .node("v")
            .node("w")
            .node("x")
            .edge("u", "v", "e1")
            .edge("w", "v", "e2")
            .edge("w", "x", "e3")
            .edge("u", "x", "e4")
            .build()
        )

    def test_a_local_shortest_under_trail_is_minimised_over_every_walk(self):
        graph = self._square()
        there_and_back = ast.Repeat(
            ast.concat(ast.forward(), ast.backward()), 1, None
        )
        query = ast.PatternQuery(
            ast.Restrictor.TRAIL,
            ast.concat(
                ast.node("s"),
                RestrictedSubpattern(ast.Restrictor.SHORTEST, there_and_back),
                ast.node("t"),
            ),
        )
        reference = reference_answers(graph, query, graph.num_edges)
        answers = Evaluator(graph).evaluate(query)
        assert answers == reference
        # The shortest u ~> u repeats an edge, so the pair has no answer
        # at all — the square's trail is not *its* shortest.
        assert not any(a.path.src == a.path.tgt for a in answers)
        assert answers

    def test_an_extension_atom_under_a_repetition_is_still_pruned(self):
        # An identity condition on the end node keeps the pattern on the
        # bounded route (its NFA over-approximates) and the repetition
        # outside it, where the atom is evaluate_ext's.
        graph = transport_network(3, 4)
        link = EdgeWithLabelExpr(Direction.FORWARD, LabelAtom("link"))
        query = ast.PatternQuery(
            ast.Restrictor.SIMPLE,
            ast.concat(
                ast.node("x", "Hub"),
                ast.Repeat(link, 1, None),
                ArithConditioned(ast.node("y"), TermConst(1), TermConst(1)),
            ),
        )
        with deadline_scope(5.0):
            answers = Evaluator(graph).evaluate(query)
        assert len(answers) == 12
