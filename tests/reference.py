"""The oracle the differential suites share.

The paper's Section 5 semantics is the specification: the bounded
denotation of each pattern on the plain :class:`PropertyGraph`
(:class:`BoundedEvaluator`, which reads a graph through its accessors
and needs no snapshot), restricted and joined by the book. Every
engine configuration — ``Evaluator(graph)``, a pristine snapshot, a
snapshot at the end of a derive chain, optimisations on or off — is
compared with that, not with another optimised configuration.

Also here: the random graph and mutation generators the CSR and
pushdown suites draw from, the witness oracle — the register NFA
run over real ids through a view's accessors, with no lowering, no
masks and no folded closures (it was the served witness pass until
PR 17 and is what the lowered one must equal) — and the read-off
check: what the served pass reads off its runs against the span
matcher, walk by walk.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from repro.direction import Direction
from repro.errors import (
    DeadlineExceededError,
    EvaluationError,
    EvaluationLimitError,
)
from repro.graph import PropertyGraph
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.paths import Path, is_simple, is_trail
from repro.gpc import ast
from repro.gpc.answers import Answer
from repro.gpc.assignments import Assignment
from repro.gpc.collect import CollectMode
from repro.gpc.conditions import satisfies
from repro.gpc.engine import Evaluator
from repro.enumeration.span_matcher import match_on_path
from repro.gpc.register_nfa import (
    PushedProps,
    RegisterNFA,
    Registers,
    _Bind,
    _Check,
    _Close,
    _EdgeStep,
    _Eps,
    _NodeTest,
    _Open,
    _Reset,
    collect_requirement,
    lower_program,
    shortest_pair_lengths,
    shortest_witnesses,
)
from repro.gpc.semantics import BoundedEvaluator
from repro.gpc.typing import infer_schema
from repro.gpc.values import Nothing
from repro.obs.counters import active_counters


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
    removal clears both, and remove-then-re-add shadows a core row.
    Every kind comes back under an old key: a node within one call, an
    edge (ops 8, 9) under one of the first keys :func:`random_graph`
    hands out, with new ends, labels and properties. If the key is
    live the edge is removed first and, one time in three, stays out;
    if it is missing (by that, or by op 3, 6 or 11) it is put back —
    in a later chain whenever the caller snapshots between calls."""
    nodes = sorted(graph.nodes)
    dedges = sorted(graph.directed_edges)
    uedges = sorted(graph.undirected_edges)
    op = rng.randrange(13)
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
    elif op == 8:
        edge = DirectedEdgeId(f"e{rng.randrange(4)}")
        if graph.has_directed_edge(edge):
            graph.remove_edge(edge)
            if rng.randrange(3) == 0:
                return
        graph.add_edge(
            edge,
            rng.choice(nodes),
            rng.choice(nodes),
            labels=rng.choice([(), ("r",), ("s",), ("r", "s")]),
            properties=rng.choice([None, {"w": rng.randrange(3)}]),
        )
    elif op == 9:
        edge = UndirectedEdgeId(f"u{rng.randrange(2)}")
        if graph.has_undirected_edge(edge):
            graph.remove_undirected_edge(edge)
            if rng.randrange(3) == 0:
                return
        graph.add_undirected_edge(
            edge,
            rng.choice(nodes),
            rng.choice(nodes),
            labels=rng.choice([(), ("m",)]),
            properties=rng.choice([None, {"w": rng.randrange(3)}]),
        )
    elif op == 10:
        graph.add_undirected_edge(
            f"mu{graph.version}",
            rng.choice(nodes),
            rng.choice(nodes),
            labels=("m",),
        )
    elif op == 11 and uedges:
        graph.remove_undirected_edge(rng.choice(uedges))
    elif op == 12 and uedges:
        graph.set_property(rng.choice(uedges), "w", rng.randrange(3))
    else:
        victim = rng.choice(nodes)
        graph.remove_node(victim)
        graph.add_node(
            victim.key,
            labels=rng.choice([(), ("P",)]),
            properties={"k": rng.randrange(3)},
        )


# ---------------------------------------------------------------------------
# The witness oracle: the register NFA over real ids and accessors
# ---------------------------------------------------------------------------

def _bind_register(
    registers: Registers, variable: str, value: object
) -> Optional[Registers]:
    """Bind ``variable`` to ``value``, or join with what it already
    holds; ``None`` when the join fails."""
    current = dict(registers)
    bound = current.get(variable)
    if bound is None:
        current[variable] = value
        return tuple(sorted(current.items()))
    return registers if bound == value else None


def _apply_zero(
    op: object,
    node: NodeId,
    registers: Registers,
    graph: PropertyGraph,
) -> Optional[Registers]:
    """Apply a zero-weight op at ``node``; ``None`` when blocked. The
    oracle keeps no group registers, so a repetition's boundary ops
    pass through (its reset still forgets the body's variables)."""
    if isinstance(op, (_Eps, _Open, _Close)):
        return registers
    if isinstance(op, _NodeTest):
        return registers if _admits(op.label, graph.labels(node)) else None
    if isinstance(op, _Bind):
        for key, const in op.props:
            value = graph.get_property(node, key)
            if value is None or value != const:
                return None
        return _bind_register(registers, op.variable, node)
    if isinstance(op, _Check):
        mu = Assignment({v: value for v, value in registers})
        try:
            ok = satisfies(graph, mu, op.condition)
        except (DeadlineExceededError, EvaluationLimitError):
            # Resource errors must surface (deadline_ms -> 504); only a
            # condition that is *undefined* here blocks the transition.
            raise
        except EvaluationError:
            return None
        return registers if ok else None
    if isinstance(op, _Reset):
        kept = tuple(
            (v, value) for v, value in registers if v not in op.variables
        )
        return kept
    raise TypeError(f"unknown op {op!r}")


def _admits(test, labels) -> bool:
    """A node test's or step's label test: none, one label, or a
    predicate on the whole label set (a label expression)."""
    if test is None:
        return True
    return test in labels if isinstance(test, str) else test(labels)


def _props_hold(graph, element, props: PushedProps) -> bool:
    """Whether every pushed ``key = const`` atom holds on ``element``
    (defined and equal — the exact truth ``satisfies`` computes)."""
    for key, const in props:
        value = graph.get_property(element, key)
        if value is None or value != const:
            return False
    return True


class Incident(NamedTuple):
    """A node's incidence in the formal model."""

    out: frozenset  # directed edges with src = node
    into: frozenset  # directed edges with tgt = node
    undirected: frozenset  # undirected edges with node among their endpoints


def incidence(graph) -> dict[NodeId, Incident]:
    """Every node's :class:`Incident`, read off the tuple alone —
    ``directed_edges`` / ``source`` / ``target`` / ``undirected_edges``
    / ``endpoints`` — and never off an adjacency index, so it can judge
    one (a snapshot's rows)."""
    rows = {node: (set(), set(), set()) for node in graph.nodes}
    for edge in graph.directed_edges:
        rows[graph.source(edge)][0].add(edge)
        rows[graph.target(edge)][1].add(edge)
    for edge in graph.undirected_edges:
        for node in graph.endpoints(edge):
            rows[node][2].add(edge)
    return {node: Incident(*map(frozenset, sets)) for node, sets in rows.items()}


def assert_adjacency_is_the_model(view, graph) -> None:
    """Every adjacency read of the snapshot ``view`` — its three rows,
    each without repeats, ``num_edges_at`` / ``degree`` and
    ``neighbours`` — equals :func:`incidence` of ``graph``."""
    for node, (out, into, undirected) in incidence(graph).items():
        for row, edges in (
            (view.out_edges(node), out),
            (view.in_edges(node), into),
            (view.undirected_edges_at(node), undirected),
        ):
            assert len(row) == len(edges) and set(row) == edges, node
        degree = len(out) + len(into) + len(undirected)
        assert view.num_edges_at(node) == view.degree(node) == degree, node
        neighbours = {graph.target(edge) for edge in out}
        neighbours |= {graph.source(edge) for edge in into}
        for edge in undirected:
            ends = graph.endpoints(edge)
            neighbours |= (ends - {node}) or ends
        assert view.neighbours(node) == neighbours, node


def _step_targets(
    step: _EdgeStep, node: NodeId, graph: PropertyGraph, rows: dict[NodeId, Incident]
) -> list[tuple[object, NodeId]]:
    """Edges usable from ``node`` under ``step``: (edge, next node),
    the edges taken from ``rows`` (:func:`incidence` of ``graph``)."""
    incident = rows[node]
    if step.direction is Direction.FORWARD:
        moves = [(edge, graph.target(edge)) for edge in incident.out]
    elif step.direction is Direction.BACKWARD:
        moves = [(edge, graph.source(edge)) for edge in incident.into]
    else:
        moves = [
            (edge, graph.other_endpoint(edge, node))
            for edge in incident.undirected
        ]
    return [
        (edge, end)
        for edge, end in moves
        if _admits(step.label, graph.labels(edge))
        and (not step.props or _props_hold(graph, edge, step.props))
    ]


#: A run's position at a node: ``(state, registers)``.
_Config = tuple[int, Registers]


def _closure(
    nfa: RegisterNFA, graph: PropertyGraph, node: NodeId, configs
) -> set[_Config]:
    """Closure of ``configs`` at ``node`` under the zero-weight ops,
    each applied for real: binds join, checks read the registers."""
    closure = set(configs)
    stack = list(closure)
    zero = nfa.zero
    while stack:
        q, registers = stack.pop()
        for op, target in zero[q]:
            updated = _apply_zero(op, node, registers, graph)
            if updated is None:
                continue
            config = (target, updated)
            if config not in closure:
                closure.add(config)
                stack.append(config)
    return closure


def reference_witnesses(
    graph: PropertyGraph,
    nfa: RegisterNFA,
    start: NodeId,
    targets: dict[NodeId, int],
) -> dict[NodeId, set[tuple[Path, frozenset[Registers]]]]:
    """One seed's witness walks by the definition: every walk from
    ``start`` that ends on a node ``v`` of ``targets`` after exactly
    ``targets[v]`` edges and that some run of ``nfa`` accepts, with the
    register files of its accepting runs. One DFS running the NFA op by
    op through ``graph``'s accessors; counts ``witness_steps`` and
    ``witnesses`` the way the served pass does."""
    found: dict[NodeId, set[tuple[Path, frozenset[Registers]]]] = {}
    if not targets:
        return found
    horizon = max(targets.values())
    back = nfa.backward_distances
    final = nfa.final
    steps = nfa.steps
    tried = accepted = 0
    rows = incidence(graph)
    node = start
    configs = _closure(nfa, graph, start, ((nfa.initial, ()),))
    elements: list = [start]
    #: Per depth, the moves not yet taken: (edge, successor, configs).
    frames: list[list] = []
    try:
        while True:
            depth = len(frames)
            if targets.get(node) == depth:
                runs = frozenset(
                    registers for q, registers in configs if q == final
                )
                if runs:
                    found.setdefault(node, set()).add((Path(elements), runs))
                    accepted += 1
            remaining = horizon - depth - 1
            moves: dict[tuple[object, NodeId], set[_Config]] = {}
            if remaining >= 0:
                takers: dict[_EdgeStep, list[_Config]] = {}
                for q, registers in configs:
                    for step, target in steps[q]:
                        takers.setdefault(step, []).append((target, registers))
                for step, entering in takers.items():
                    variable = step.variable
                    for move in _step_targets(step, node, graph, rows):
                        for target, registers in entering:
                            if variable is not None:
                                registers = _bind_register(
                                    registers, variable, move[0]
                                )
                                if registers is None:
                                    continue
                            moves.setdefault(move, set()).add(
                                (target, registers)
                            )
            tried += len(moves)
            frame = []
            for (edge, successor), reached in moves.items():
                closure = _closure(nfa, graph, successor, reached)
                if any(0 <= back[q] <= remaining for q, _ in closure):
                    frame.append((edge, successor, closure))
            frames.append(frame)
            while frames and not frames[-1]:
                frames.pop()
                del elements[-2:]
            if not frames:
                return found
            edge, node, configs = frames[-1].pop()
            elements += (edge, node)
    finally:
        counters = active_counters()
        if counters is not None:
            counters.witness_steps += tried
            counters.witnesses += accepted


# ---------------------------------------------------------------------------
# The read-off check: assignments off the runs == the span matcher
# ---------------------------------------------------------------------------


def assert_runs_equal_the_matcher(
    view, pattern: ast.Pattern, nfa: RegisterNFA, horizon: int
) -> dict[CollectMode, int]:
    """Every walk the served witness pass accepts on ``view`` — from
    every seed, to every end at its minimum length and at one more, up
    to ``horizon`` — carries, with every variable and group register
    tracked, exactly the assignments :func:`match_on_path` (the
    independent Section 5 implementation) finds on it, under each
    collect mode in which the pattern is run-complete. Returns the
    walks compared per such mode."""
    modes = [
        mode for mode in CollectMode if collect_requirement(pattern, mode) is None
    ]
    compared = dict.fromkeys(modes, 0)
    if not modes:
        return compared
    padding = {variable: Nothing for variable in infer_schema(pattern)}
    search = lower_program(nfa, view)
    walker = search.retracked((*nfa.sites, *nfa.groups))
    for start in view.nodes:
        best = shortest_pair_lengths(search, start)
        for extra in (0, 1):
            targets = {
                end: length + extra
                for end, length in best.items()
                if length + extra <= horizon
            }
            found = shortest_witnesses(walker, start, targets)
            for walks in found.values():
                for walk, runs in walks:
                    read = {Assignment(padding | dict(run)) for run in runs}
                    assert len(read) == len(runs)
                    for mode in modes:
                        matched = match_on_path(pattern, walk, view, mode)
                        assert read == matched, (walk, mode)
                        compared[mode] += 1
    return compared
