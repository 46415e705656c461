"""Shared workloads for the experiment suite.

Central definitions keep the benchmarks and the tests that sanity-check
them in agreement about what exactly was run.
"""

from __future__ import annotations

import random

from repro.gpc import ast
from repro.gpc.parser import parse_pattern
from repro.graph import generators
from repro.graph.property_graph import PropertyGraph

__all__ = [
    "grammar_corpus",
    "typing_corpus",
    "finiteness_workloads",
    "expressivity_graphs",
    "deep_pattern",
]


def grammar_corpus() -> list[str]:
    """Concrete-syntax snippets covering every Figure 1 production:
    node/edge patterns in all direction/descriptor combinations, union,
    concatenation, conditioning, all repetition forms, every restrictor
    (queries are exercised in ``parse_query`` form by the benchmarks)."""
    return [
        "()",
        "(x)",
        "(:A)",
        "(x:A)",
        "->",
        "<-",
        "~",
        "-[e]->",
        "-[:knows]->",
        "-[e:knows]->",
        "<-[e:knows]-",
        "~[e:knows]~",
        "(x) -> (y)",
        "(x) <- (y) ~ (z)",
        "(x:A) + (x:B)",
        "[(x:A) -> (y)] + [(x:A) <- (y)]",
        "(x)*",
        "->{2,5}",
        "->{3}",
        "->{2,}",
        "->{0,4}",
        "[-[e:a]-> (m:Mid)]{1,3}",
        "(x) << x.k = 5 >>",
        "(x) << x.name = 'Ann' >>",
        "[(x) -> (y)] << x.k = y.k >>",
        "(x) << x.a = 1 AND (x.b = 2 OR NOT x.c = 3) >>",
        "(x) << x.flag = TRUE >>",
        "[(x:A) -[e]->{1,} (y:B)] << x.k = y.k >>",
        "[(a) -> (b) + (a) <- (b)]{0,2} << a.v = b.v >>",
    ]


def typing_corpus() -> list[ast.Pattern]:
    """Patterns exercising every Figure 2 rule (including Maybe and
    Group nesting)."""
    texts = [
        "(x) -> (y)",
        "(x:A) + ()",
        "[(x) -> (y)] + [(y) <- (x)]",
        "[(x) -> (y)] + (y)",
        "[-[e]->]{1,3}",
        "[[-[e]->]{1,2}]{1,2}",
        "[(x) + ()] -> (z)",
        "[(x) << x.k = 1 >>] + ()",
        "(x) [(y) + ()] (x)",
    ]
    return [parse_pattern(text) for text in texts]


def deep_pattern(depth: int) -> ast.Pattern:
    """A deeply nested pattern for scaling the type checker."""
    pattern: ast.Pattern = ast.node("v0")
    for i in range(1, depth):
        pattern = ast.Union(
            ast.Concat(pattern, ast.forward(f"e{i}")),
            ast.node(f"v{i}"),
        )
    return pattern


def finiteness_workloads() -> list[tuple[str, PropertyGraph]]:
    """Cyclic graphs where unrestricted answer sets are infinite."""
    return [
        ("cycle-4", generators.cycle_graph(4)),
        ("cycle-8", generators.cycle_graph(8)),
        ("two-cliques", generators.two_cliques_bridge(3)),
        ("ladder-3", generators.ladder_graph(3)),
    ]


def expressivity_graphs(count: int = 5, seed: int = 7) -> list[PropertyGraph]:
    """Random edge-labeled digraphs for differential testing."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        nodes = rng.randrange(4, 8)
        edges = rng.randrange(nodes, nodes * 2 + 1)
        graphs.append(
            generators.random_labeled_digraph(
                nodes, edges, edge_labels=("a", "b"), node_labels=("A", "B"),
                seed=rng.randrange(10_000),
            )
        )
    return graphs
