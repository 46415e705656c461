"""Matching a pattern against a fixed path — the Lemma 18/19 routine.

Given a path ``p = u0 e1 u1 ... en un`` of a graph, this module
computes, for a start position ``i``, the end positions ``j`` and the
assignments ``mu`` with ``(p[i..j], mu) in [[pi]]_G`` — the dynamic
program behind Lemma 18 (variable-free patterns in PTIME) and Lemma 19
(fixed patterns in PSPACE), evaluated top-down and *start-anchored*:
:func:`match_on_path` wants only the matches spanning the whole path,
so it asks for start ``0`` and every sub-pattern is evaluated at the
starts actually reached from there, not at all ``n + 1`` of them.
:func:`span_matches` is the same matcher asked for every start.

Besides powering the Theorem 12 enumerator, this is a *second,
independent* implementation of the pattern semantics: the differential
tests check it against the compositional engine on random inputs, and
the register runs' assignments against it walk by walk.
"""

from __future__ import annotations

from repro.errors import EvaluationLimitError
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph
from repro.gpc import ast
from repro.gpc.assignments import EMPTY_ASSIGNMENT, Assignment
from repro.gpc.collect import CollectAccumulator, CollectMode, empty_group_assignment
from repro.gpc.conditions import satisfies
from repro.gpc.minlength import min_path_length
from repro.gpc.typing import infer_schema
from repro.gpc.values import Nothing

__all__ = ["span_matches", "match_on_path"]

Span = tuple[int, int]
SpanTable = dict[Span, frozenset[Assignment]]
#: What one start matches: end position -> assignments.
Ends = dict[int, frozenset[Assignment]]

_MAX_POWERS = 10_000


def span_matches(
    pattern: ast.Pattern,
    path: Path,
    graph: PropertyGraph,
    collect_mode: CollectMode = CollectMode.GROUPING,
) -> SpanTable:
    """All ``(span, mu)`` such that the subpath at ``span`` matches."""
    matcher = _SpanMatcher(path, graph, collect_mode)
    return {
        (i, j): mus
        for i in range(len(path) + 1)
        for j, mus in matcher.matches_from(pattern, i).items()
    }


def match_on_path(
    pattern: ast.Pattern,
    path: Path,
    graph: PropertyGraph,
    collect_mode: CollectMode = CollectMode.GROUPING,
    values: tuple = (),
) -> frozenset[Assignment]:
    """The assignments ``mu`` with ``(path, mu) in [[pattern]]_G`` —
    i.e. matches spanning the *whole* path — with ``pattern``'s
    :class:`~repro.gpc.conditions_ast.Param` constants bound to
    ``values``."""
    ends = _SpanMatcher(path, graph, collect_mode, values).matches_from(pattern, 0)
    return ends.get(len(path), frozenset())


def _frozen(out: dict[int, set[Assignment]]) -> Ends:
    return {j: frozenset(mus) for j, mus in out.items()}


class _SpanMatcher:
    def __init__(
        self, path: Path, graph: PropertyGraph, collect_mode: CollectMode, values: tuple = ()
    ):
        self.path = path
        self.graph = graph
        self.collect_mode = collect_mode
        self.values = values
        self.n = len(path)
        self.nodes = path.nodes
        self.edges = path.edges
        # Keyed by the sub-pattern's identity, not its value: the AST
        # outlives the matcher, and hashing a deep frozen dataclass per
        # lookup would cost more than the lookup saves.
        self._memo: dict[tuple[int, int], Ends] = {}
        self._domains: dict[int, frozenset[str]] = {}

    def matches_from(self, pattern: ast.Pattern, i: int) -> Ends:
        """``{j: {mu}}`` with ``(path[i..j], mu)`` matching ``pattern``."""
        key = (id(pattern), i)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = self._dispatch(pattern, i)
        return found

    def _domain(self, pattern: ast.Pattern) -> frozenset[str]:
        found = self._domains.get(id(pattern))
        if found is None:
            found = self._domains[id(pattern)] = frozenset(infer_schema(pattern))
        return found

    # ------------------------------------------------------------------

    def _dispatch(self, pattern: ast.Pattern, i: int) -> Ends:
        if isinstance(pattern, ast.NodePattern):
            return self._node_from(pattern, i)
        if isinstance(pattern, ast.EdgePattern):
            return self._edge_from(pattern, i)
        if isinstance(pattern, ast.Concat):
            return self._concat_from(pattern, i)
        if isinstance(pattern, ast.Union):
            return self._union_from(pattern, i)
        if isinstance(pattern, ast.Conditioned):
            return {
                j: kept
                for j, mus in self.matches_from(pattern.pattern, i).items()
                if (
                    kept := frozenset(
                        mu
                        for mu in mus
                        if satisfies(self.graph, mu, pattern.condition, self.values)
                    )
                )
            }
        if isinstance(pattern, ast.Repeat):
            return self._repeat_from(pattern, i)
        raise EvaluationLimitError(
            f"span matcher does not support extension node {pattern!r}"
        )

    def _node_from(self, pattern: ast.NodePattern, i: int) -> Ends:
        node = self.nodes[i]
        if pattern.label is not None and pattern.label not in self.graph.labels(node):
            return {}
        mu = (
            Assignment({pattern.variable: node})
            if pattern.variable
            else EMPTY_ASSIGNMENT
        )
        return {i: frozenset({mu})}

    def _edge_from(self, pattern: ast.EdgePattern, i: int) -> Ends:
        if i == self.n:
            return {}
        graph = self.graph
        before, edge, after = self.nodes[i], self.edges[i], self.nodes[i + 1]
        if pattern.label is not None and pattern.label not in graph.labels(edge):
            return {}
        if graph.has_directed_edge(edge):
            if pattern.direction is ast.Direction.FORWARD:
                ok = graph.source(edge) == before and graph.target(edge) == after
            elif pattern.direction is ast.Direction.BACKWARD:
                ok = graph.source(edge) == after and graph.target(edge) == before
            else:
                ok = False
        else:
            ok = pattern.direction is ast.Direction.UNDIRECTED
        if not ok:
            return {}
        mu = (
            Assignment({pattern.variable: edge})
            if pattern.variable
            else EMPTY_ASSIGNMENT
        )
        return {i + 1: frozenset({mu})}

    def _concat_from(self, pattern: ast.Concat, i: int) -> Ends:
        out: dict[int, set[Assignment]] = {}
        for k, left_mus in self.matches_from(pattern.left, i).items():
            for j, right_mus in self.matches_from(pattern.right, k).items():
                for left_mu in left_mus:
                    for right_mu in right_mus:
                        merged = left_mu.unify(right_mu)
                        if merged is not None:
                            out.setdefault(j, set()).add(merged)
        return _frozen(out)

    def _union_from(self, pattern: ast.Union, i: int) -> Ends:
        domain = self._domain(pattern)
        out: dict[int, set[Assignment]] = {}
        for branch in (pattern.left, pattern.right):
            missing = domain - self._domain(branch)
            for j, mus in self.matches_from(branch, i).items():
                for mu in mus:
                    if missing:
                        padded = dict(mu)
                        padded.update({v: Nothing for v in missing})
                        mu = Assignment(padded)
                    out.setdefault(j, set()).add(mu)
        return _frozen(out)

    def _repeat_from(self, pattern: ast.Repeat, i: int) -> Ends:
        body = pattern.pattern
        domain = tuple(sorted(self._domain(body)))
        out: dict[int, set[Assignment]] = {}
        if pattern.lower == 0:
            out[i] = {empty_group_assignment(domain)}
        if pattern.upper == 0:
            return _frozen(out)

        # Power iteration over (end, accumulator) states. The sequence
        # of state sets reached from one start does not depend on any
        # other start, so the period detection and the power cap below
        # are per start.
        State = tuple[int, CollectAccumulator]
        subpath = self.path.subpath
        seed = CollectAccumulator(mode=self.collect_mode)
        current: set[State] = set()
        for j, mus in self.matches_from(body, i).items():
            for mu in mus:
                extended = seed.extend(subpath(i, j), mu)
                if extended is not None:
                    current.add((j, extended))
        cap = self._power_cap(pattern, i)
        power = 1
        history: dict[frozenset, int] = {}
        while current:
            if power >= pattern.lower and (
                pattern.upper is None or power <= pattern.upper
            ):
                for j, accumulator in current:
                    out.setdefault(j, set()).add(accumulator.finalize(domain))
            if pattern.upper is not None and power >= pattern.upper:
                break
            if power >= cap and power >= pattern.lower:
                break
            frozen = frozenset(current)
            if frozen in history:
                first = history[frozen]
                period = power - first
                by_index = {index: states for states, index in history.items()}
                for index in range(first, power):
                    reachable = index
                    while reachable < pattern.lower:
                        reachable += period
                    if pattern.upper is not None and reachable > pattern.upper:
                        continue
                    for j, accumulator in by_index[index]:
                        out.setdefault(j, set()).add(accumulator.finalize(domain))
                break
            history[frozen] = power
            if power >= _MAX_POWERS:
                raise EvaluationLimitError("span matcher power iteration diverged")
            next_states: set[State] = set()
            for j, accumulator in current:
                for j2, mus in self.matches_from(body, j).items():
                    for mu in mus:
                        extended = accumulator.extend(subpath(j, j2), mu)
                        if extended is not None:
                            next_states.add((j2, extended))
            current = next_states
            power += 1
        return _frozen(out)

    def _power_cap(self, pattern: ast.Repeat, i: int) -> int:
        """The Lemma 15 bound for the suffix the start ``i`` can reach:
        the largest power that can still contribute new answers."""
        body = pattern.pattern
        if (
            self.collect_mode is not CollectMode.GROUPING
            or min_path_length(body) >= 1
        ):
            return self.n + 1
        m = max(
            len(self.matches_from(body, k).get(k, ()))
            for k in range(i, self.n + 1)
        )
        return (self.n + 1) * (m + 1)
