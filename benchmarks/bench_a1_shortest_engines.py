"""Ablation A1 — the two `shortest` strategies.

Design choice under study: the engine's register-NFA shortest engine
(exact per-pair minima + witness enumeration) versus the naive
bounded-denotation iterative deepening it replaced (still present as
the route of patterns under an arithmetic condition, a nested
restrictor or a witness marker, towards the candidates their
over-approximating NFA gives). Expected shape: on patterns
whose denotation grows with the length horizon, the register engine is
dramatically cheaper and — crucially — its cost does not explode with
the graph's walk count.
"""

from repro.bench.harness import Table, time_call
from repro.gpc import ast
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.semantics import restrict
from repro.gpc.parser import parse_pattern
from repro.graph.generators import cycle_graph


def _register_shortest(graph, pattern):
    evaluator = Evaluator(graph)
    return evaluator._eval_shortest(pattern)


def _fallback_shortest(graph, pattern):
    evaluator = Evaluator(graph, EngineConfig(shortest_deepening_limit=64))
    return restrict(ast.Restrictor.SHORTEST, evaluator._eval_deepening(pattern))


def test_a1_register_vs_deepening(benchmark):
    pattern = parse_pattern("(x) ->{1,} (y)")
    table = Table(
        "A1: shortest via register NFA vs bounded deepening",
        ["cycle size", "answers", "register ms", "deepening ms"],
    )
    for size in (3, 4, 5, 6):
        graph = cycle_graph(size)
        register_answers, register_time = time_call(
            lambda g=graph: _register_shortest(g, pattern)
        )
        fallback_answers, fallback_time = time_call(
            lambda g=graph: _fallback_shortest(g, pattern)
        )
        assert register_answers == fallback_answers  # same semantics
        table.add(
            size,
            len(register_answers),
            register_time * 1000,
            fallback_time * 1000,
        )
    table.show()

    graph = cycle_graph(5)
    benchmark(lambda: _register_shortest(graph, pattern))
