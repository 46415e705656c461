"""Regex parsing, Thompson construction, and graph products."""

import pytest

from repro.errors import EvaluationLimitError, ParseError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import chain_graph, cycle_graph
from repro.graph.ids import NodeId as N
from repro.automata.nfa import NFABuilder
from repro.automata.product import (
    accepted_pairs,
    min_accepting_lengths,
    pairs_and_distances,
)
from repro.automata.regex import (
    Concat,
    Epsilon,
    Option,
    Plus,
    Star,
    Symbol,
    Union,
    parse_regex,
    regex_size,
    regex_to_nfa,
)


class TestRegexParser:
    def test_symbol(self):
        assert parse_regex("abc") == Symbol("abc")

    def test_inverse_symbol(self):
        assert parse_regex("a-") == Symbol("a", inverse=True)

    def test_concat_by_juxtaposition(self):
        assert parse_regex("a b") == Concat(Symbol("a"), Symbol("b"))
        assert parse_regex("ab c") == Concat(Symbol("ab"), Symbol("c"))

    def test_union(self):
        assert parse_regex("a | b") == Union(Symbol("a"), Symbol("b"))

    def test_postfix_operators(self):
        assert parse_regex("a*") == Star(Symbol("a"))
        assert parse_regex("a+") == Plus(Symbol("a"))
        assert parse_regex("a?") == Option(Symbol("a"))

    def test_precedence(self):
        # union < concat < postfix
        parsed = parse_regex("a b* | c")
        assert isinstance(parsed, Union)
        assert parsed.left == Concat(Symbol("a"), Star(Symbol("b")))

    def test_parentheses_and_epsilon(self):
        assert parse_regex("(a | b) c") == Concat(
            Union(Symbol("a"), Symbol("b")), Symbol("c")
        )
        assert parse_regex("()") == Epsilon()

    @pytest.mark.parametrize("text", ["", "(", "a |", "*", "a)("])
    def test_errors(self, text):
        with pytest.raises(ParseError):
            parse_regex(text)

    def test_regex_size(self):
        assert regex_size(parse_regex("(a b-)* | c")) == 6


class TestProductEvaluation:
    def test_single_symbol_on_chain(self):
        graph = chain_graph(3, edge_label="a")
        pairs = accepted_pairs(graph, regex_to_nfa(parse_regex("a")))
        assert pairs == frozenset(
            {(N("n0"), N("n1")), (N("n1"), N("n2")), (N("n2"), N("n3"))}
        )

    def test_star_reaches_everything_on_cycle(self):
        graph = cycle_graph(3, edge_label="a")
        pairs = accepted_pairs(graph, regex_to_nfa(parse_regex("a*")))
        assert len(pairs) == 9

    def test_inverse_traverses_backward(self):
        graph = chain_graph(2, edge_label="a")
        pairs = accepted_pairs(graph, regex_to_nfa(parse_regex("a-")))
        assert (N("n1"), N("n0")) in pairs
        assert (N("n0"), N("n1")) not in pairs

    def test_distances_are_minimal(self):
        graph = cycle_graph(4, edge_label="a")
        distances = pairs_and_distances(graph, regex_to_nfa(parse_regex("a+")))
        assert distances[(N("n0"), N("n1"))] == 1
        assert distances[(N("n0"), N("n3"))] == 3
        # via the cycle, returning home costs 4
        assert distances[(N("n0"), N("n0"))] == 4

    def test_epsilon_accepts_at_zero(self):
        graph = chain_graph(1)
        best = min_accepting_lengths(graph, regex_to_nfa(Epsilon()), N("n0"))
        assert best == {N("n0"): 0}

    def test_option(self):
        graph = chain_graph(2, edge_label="a")
        pairs = accepted_pairs(graph, regex_to_nfa(parse_regex("a?")))
        assert (N("n0"), N("n0")) in pairs
        assert (N("n0"), N("n1")) in pairs
        assert (N("n0"), N("n2")) not in pairs

    def test_mixed_two_way_language(self):
        # a b-: forward a then backward b.
        graph = (
            GraphBuilder()
            .edge("u", "m", "a")
            .edge("w", "m", "b")
            .build()
        )
        pairs = accepted_pairs(graph, regex_to_nfa(parse_regex("a b-")))
        assert pairs == frozenset({(N("u"), N("w"))})


class TestNFABuilder:
    def test_state_limit_enforced(self):
        builder = NFABuilder(state_limit=3)
        builder.new_state()
        builder.new_state()
        builder.new_state()
        with pytest.raises(EvaluationLimitError):
            builder.new_state()


class TestGPCAbstraction:
    """The engine's over-approximation of a pattern's endpoint pairs is
    the pattern's own register NFA: a wrapper compiles as its child, so
    the wrapper's condition is dropped and the child's kept."""

    @staticmethod
    def _candidates(graph, pattern, config=None):
        from repro.gpc.engine import Evaluator
        from repro.gpc.parser import parse_pattern

        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        return Evaluator(graph, config)._deepening_candidates(pattern)

    def test_condition_dropped(self):
        from repro.extensions.arithmetic import ArithConditioned, TermConst
        from repro.gpc.parser import parse_pattern

        graph = (
            GraphBuilder().node("a", k=1).node("b", k=2).edge("a", "b", "e").build()
        )
        # The NFA ignores the wrapper's (unsatisfiable) condition ...
        never = ArithConditioned(parse_pattern("(x) -> (y)"), TermConst(0), TermConst(1))
        assert self._candidates(graph, never) == {(N("a"), N("b")): 1}
        # ... and keeps the child's.
        kept = ArithConditioned(
            parse_pattern("[(x) -> (y)] << x.k = y.k >>"), TermConst(1), TermConst(1)
        )
        assert self._candidates(graph, kept) == {}

    def test_repetition_unrolled_exactly(self):
        distances = self._candidates(chain_graph(5, edge_label="e"), "->{2,3}")
        assert distances[(N("n0"), N("n2"))] == 2
        assert distances[(N("n0"), N("n3"))] == 3
        assert (N("n0"), N("n4")) not in distances

    def test_huge_bounds_hit_state_limit(self):
        from repro.gpc.engine import EngineConfig

        with pytest.raises(EvaluationLimitError):
            self._candidates(
                chain_graph(2),
                "->{100000,}",
                EngineConfig(automaton_state_limit=1000),
            )