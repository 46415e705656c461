"""Composite patterns over mixed (directed + undirected) graphs.

The paper's data model allows directed and undirected edges to
coexist; these tests exercise the combinations the rest of the suite
does not: undirected edges under repetition, direction unions, shortest
over mixed connectivity, and joins mixing edge sorts.
"""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.ids import NodeId as N, UndirectedEdgeId as U
from repro.graph.paths import is_trail
from repro.gpc.engine import Evaluator, evaluate
from repro.gpc.parser import parse_pattern, parse_query


@pytest.fixture
def mixed_path_graph():
    """a -d-> b ~u~ c -d-> d : alternating directed/undirected chain."""
    return (
        GraphBuilder()
        .node("a", "A")
        .node("b")
        .node("c")
        .node("d", "D")
        .edge("a", "b", "r", key="d1")
        .undirected("b", "c", "u", key="u1")
        .edge("c", "d", "r", key="d2")
        .build()
    )


class TestUndirectedInComposites:
    def test_mixed_chain_concatenation(self, mixed_path_graph):
        matches = Evaluator(mixed_path_graph).eval_pattern(
            parse_pattern("(x:A) -> ~ -> (y:D)")
        )
        assert len(matches) == 1
        ((path, mu),) = matches
        assert path.src == N("a") and path.tgt == N("d")
        assert len(path) == 3

    def test_undirected_under_repetition(self):
        graph = (
            GraphBuilder()
            .undirected("a", "b", "u")
            .undirected("b", "c", "u")
            .build()
        )
        matches = Evaluator(graph).eval_pattern(parse_pattern("~{2,2}"))
        # walks of two undirected steps: a-b-c, c-b-a, a-b-a, b-a-b,
        # b-c-b, c-b-c.
        assert len(matches) == 6

    def test_direction_union_step(self, mixed_path_graph):
        # one step by any means, starting from b.
        matches = Evaluator(mixed_path_graph).eval_pattern(
            parse_pattern("(x) [-> + <- + ~] (y)")
        )
        from_b = {mu["y"] for _, mu in matches if mu["x"] == N("b")}
        assert from_b == {N("a"), N("c")}

    def test_any_direction_star_reaches_everything(self, mixed_path_graph):
        answers = evaluate(
            parse_query("SHORTEST (x:A) [-> + <- + ~]{0,} (y)"),
            mixed_path_graph,
        )
        assert {a["y"] for a in answers} == mixed_path_graph.nodes

    def test_shortest_across_mixed_edges(self, mixed_path_graph):
        answers = evaluate(
            parse_query("SHORTEST (x:A) [-> + ~]{1,} (y:D)"), mixed_path_graph
        )
        assert len(answers) == 1
        assert len(next(iter(answers)).path) == 3

    def test_trail_counts_undirected_edges_once(self):
        # A single undirected edge cannot be used twice in a trail.
        graph = GraphBuilder().undirected("a", "b", "u").build()
        answers = evaluate(parse_query("TRAIL ~{1,}"), graph)
        assert {len(a.path) for a in answers} == {1}

    def test_undirected_variable_binds_edge(self, mixed_path_graph):
        matches = Evaluator(mixed_path_graph).eval_pattern(
            parse_pattern("(b) ~[e:u]~ (c)")
        )
        values = {mu["e"] for _, mu in matches}
        assert values == {U("u1")}

    def test_join_across_edge_sorts(self, mixed_path_graph):
        answers = evaluate(
            parse_query("TRAIL (x:A) -> (m), TRAIL (m) ~ (n)"),
            mixed_path_graph,
        )
        assert len(answers) == 1
        answer = next(iter(answers))
        assert answer["m"] == N("b") and answer["n"] == N("c")

    def test_register_engine_handles_undirected(self, pair_lengths):
        from repro.gpc.register_nfa import compile_register_nfa

        graph = (
            GraphBuilder()
            .undirected("a", "b", "u")
            .undirected("b", "c", "u")
            .build()
        )
        nfa = compile_register_nfa(parse_pattern("~[:u]~{1,}"))
        best = pair_lengths(graph, nfa, N("a"))
        assert best == {N("a"): 2, N("b"): 1, N("c"): 2}

    def test_undirected_self_loop_trail(self, mixed_graph):
        answers = evaluate(parse_query("TRAIL (w:M) ~ (w)"), mixed_graph)
        assert len(answers) == 1
        assert all(is_trail(a.path) for a in answers)
