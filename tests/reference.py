"""The oracle the differential suites share.

The paper's Section 5 semantics is the specification: the bounded
denotation of each pattern on the plain :class:`PropertyGraph`
(:class:`BoundedEvaluator`, which reads a graph through its accessors
and needs no snapshot), restricted and joined by the book. Every
engine configuration — ``Evaluator(graph)``, a pristine snapshot, a
snapshot at the end of a derive chain, optimisations on or off — is
compared with that, not with another optimised configuration.

Also here: the random graph and mutation generators the CSR and
pushdown suites draw from.
"""

from __future__ import annotations

import random

from repro.graph import PropertyGraph
from repro.graph.paths import is_simple, is_trail
from repro.gpc import ast
from repro.gpc.answers import Answer
from repro.gpc.collect import CollectMode
from repro.gpc.engine import Evaluator
from repro.gpc.semantics import BoundedEvaluator


def keep_shortest(matches):
    """``shortest`` by the book: per endpoint pair, the matches of
    minimum path length."""
    minima = {}
    for path, _ in matches:
        key = (path.src, path.tgt)
        minima[key] = min(minima.get(key, len(path)), len(path))
    return {
        (path, mu)
        for path, mu in matches
        if len(path) == minima[(path.src, path.tgt)]
    }


def reference_answers(
    graph: PropertyGraph,
    query: ast.Query,
    horizon: int,
    mode: CollectMode = CollectMode.GROUPING,
    limits=None,
) -> set[Answer]:
    """``[[query]]`` on the plain ``graph`` from the bounded denotation.

    ``trail`` / ``simple`` take their Lemma 16 bounds; a bare
    ``shortest`` is cut at ``horizon``, so endpoint pairs whose minimum
    lies beyond it are missing (see :func:`assert_equal_reference`).
    Raises :class:`~repro.errors.EvaluationLimitError` when ``limits``
    fire."""
    if isinstance(query, ast.Join):
        left = reference_answers(graph, query.left, horizon, mode, limits)
        right = reference_answers(graph, query.right, horizon, mode, limits)
        combined = (a.combine(b) for a in left for b in right)
        return {answer for answer in combined if answer is not None}
    restrictor = query.restrictor
    bounded = BoundedEvaluator(graph, mode, limits)
    if restrictor.mode == "trail":
        matches = bounded.evaluate(query.pattern, graph.num_edges)
        matches = {m for m in matches if is_trail(m[0])}
    elif restrictor.mode == "simple":
        matches = bounded.evaluate(query.pattern, graph.num_nodes)
        matches = {m for m in matches if is_simple(m[0])}
    else:
        matches = bounded.evaluate(query.pattern, horizon)
    if restrictor.shortest:
        matches = keep_shortest(matches)
    return {
        Answer(
            (path,), mu if query.name is None else mu.bind(query.name, path)
        )
        for path, mu in matches
    }


def assert_equal_reference(
    reference, query, views, horizon, restriction=None
) -> None:
    """Every ``name -> (graph or snapshot, config)`` in ``views``
    answers ``query`` as ``reference`` (:func:`reference_answers` at
    the same ``horizon``) does, below the horizon: answers with a
    longer path belong to pairs the bounded reference cannot see."""
    if restriction is not None:
        reference = {a for a in reference if a.paths[0].src in restriction}
    for name, (view, config) in views.items():
        answers = Evaluator(view, config).evaluate(
            query, start_restriction=restriction
        )
        got = {a for a in answers if all(len(p) <= horizon for p in a.paths)}
        assert got == reference, name


def random_graph(rng: random.Random) -> PropertyGraph:
    """3-9 nodes labelled from {P, Q} with ``k`` in 0..2, 2-17 directed
    edges labelled from {r, s} with ``w`` in 0..2, 0-3 undirected ``m``
    edges."""
    graph = PropertyGraph()
    handles = [
        graph.add_node(
            f"n{i}",
            labels=rng.choice([(), ("P",), ("Q",), ("P", "Q")]),
            properties=rng.choice([None, {"k": rng.randrange(3)}]),
        )
        for i in range(rng.randrange(3, 10))
    ]
    for i in range(rng.randrange(2, 18)):
        graph.add_edge(
            f"e{i}",
            rng.choice(handles),
            rng.choice(handles),
            labels=rng.choice([("r",), ("s",), ("r", "s"), ()]),
            properties=rng.choice([None, {"w": rng.randrange(3)}]),
        )
    for i in range(rng.randrange(0, 4)):
        graph.add_undirected_edge(
            f"u{i}", rng.choice(handles), rng.choice(handles), labels=("m",)
        )
    return graph


def mutate(rng: random.Random, graph: PropertyGraph) -> None:
    """One mutation of a :func:`random_graph`. Property writes and
    removals flip mask bits, edge and node changes patch CSR rows, node
    removal clears both, and remove-then-re-add shadows a core row."""
    nodes = sorted(graph.nodes)
    dedges = sorted(graph.directed_edges)
    op = rng.randrange(8)
    if op == 0 and nodes:
        graph.set_property(rng.choice(nodes), "k", rng.randrange(3))
    elif op == 1 and dedges:
        graph.set_property(rng.choice(dedges), "w", rng.randrange(3))
    elif op == 2 and nodes:
        victim = rng.choice(nodes)
        if graph.get_property(victim, "k") is not None:
            graph.remove_property(victim, "k")
    elif op == 3 and len(nodes) > 3:
        graph.remove_node(rng.choice(nodes))
    elif op == 4:
        graph.add_node(
            f"m{graph.version}",
            labels=rng.choice([("P",), ("Q",)]),
            properties={"k": rng.randrange(3)},
        )
    elif op == 5 and len(nodes) >= 2:
        graph.add_edge(
            f"me{graph.version}",
            rng.choice(nodes),
            rng.choice(nodes),
            labels=rng.choice([("r",), ("s",)]),
            properties={"w": rng.randrange(3)},
        )
    elif op == 6 and dedges:
        graph.remove_edge(rng.choice(dedges))
    else:
        victim = rng.choice(nodes)
        graph.remove_node(victim)
        graph.add_node(
            victim.key,
            labels=rng.choice([(), ("P",)]),
            properties={"k": rng.randrange(3)},
        )
