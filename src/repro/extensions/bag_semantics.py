"""Bag semantics — counting derivations (a Section 7 extension).

The core calculus has set semantics (like relational calculus); SQL
and GQL use bags. This evaluator mirrors the bounded compositional
evaluator but returns a multiplicity per answer: the number of
distinct *derivations* producing it (e.g. two different unions
producing the same match yield multiplicity 2, as do two different
factorizations of a repetition).

Termination caveat: with edgeless repetition bodies the number of
derivations of a single answer can be infinite (that is exactly why
Section 5 needs the three ``collect`` approaches), so this evaluator
requires every repetition body to have positive minimum length and
raises :class:`~repro.errors.CollectError` otherwise.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import CollectError
from repro.graph.ids import NodeId
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph
from repro.gpc import ast
from repro.gpc.assignments import Assignment
from repro.gpc.collect import CollectAccumulator, CollectMode, empty_group_assignment
from repro.gpc.conditions import satisfies
from repro.gpc.minlength import min_path_length, validate_approach1
from repro.gpc.semantics import Match, restrict
from repro.gpc.typing import infer_schema
from repro.gpc.values import Nothing

__all__ = ["BagEvaluator"]


class BagEvaluator:
    """Evaluates patterns under bag semantics, bounded by path length."""

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        self._memo: dict[tuple[ast.Pattern, int], Counter] = {}

    def evaluate(self, pattern: ast.Pattern, max_length: int) -> Counter:
        """``Counter[(path, assignment)] -> multiplicity``."""
        validate_approach1(pattern)
        return self._eval(pattern, max_length)

    def evaluate_query(self, query: ast.PatternQuery) -> Counter:
        """Bag answers of a restricted pattern query."""
        restrictor = query.restrictor
        simple = restrictor.mode == "simple"
        bound = self.graph.num_nodes if simple else self.graph.num_edges
        bag = self.evaluate(query.pattern, bound)
        # A restrictor looks at paths; the multiplicities ride along.
        bag = Counter({match: bag[match] for match in restrict(restrictor, bag)})
        if query.name is not None:
            bag = Counter(
                {
                    (path, mu.bind(query.name, path)): count
                    for (path, mu), count in bag.items()
                }
            )
        return bag

    # ------------------------------------------------------------------

    def _eval(self, pattern: ast.Pattern, max_length: int) -> Counter:
        if max_length < 0:
            return Counter()
        key = (pattern, max_length)
        if key not in self._memo:
            self._memo[key] = self._dispatch(pattern, max_length)
        return self._memo[key]

    def _dispatch(self, pattern: ast.Pattern, max_length: int) -> Counter:
        if isinstance(pattern, (ast.NodePattern, ast.EdgePattern)):
            return self._eval_atomic(pattern, max_length)
        if isinstance(pattern, ast.Concat):
            return self._eval_concat(pattern, max_length)
        if isinstance(pattern, ast.Union):
            return self._eval_union(pattern, max_length)
        if isinstance(pattern, ast.Conditioned):
            inner = self._eval(pattern.pattern, max_length)
            return Counter(
                {
                    (path, mu): count
                    for (path, mu), count in inner.items()
                    if satisfies(self.graph, mu, pattern.condition)
                }
            )
        if isinstance(pattern, ast.Repeat):
            return self._eval_repeat(pattern, max_length)
        raise TypeError(f"bag semantics does not support {pattern!r}")

    def _eval_atomic(self, pattern, max_length: int) -> Counter:
        from repro.gpc.semantics import BoundedEvaluator

        # Atomic patterns have exactly one derivation per match.
        helper = BoundedEvaluator(self.graph)
        return Counter(dict.fromkeys(helper.evaluate(pattern, max_length), 1))

    def _eval_concat(self, pattern: ast.Concat, max_length: int) -> Counter:
        left_min = min_path_length(pattern.left)
        right_min = min_path_length(pattern.right)
        left = self._eval(pattern.left, max_length - right_min)
        right = self._eval(pattern.right, max_length - left_min)
        by_source: dict[NodeId, list[tuple[Match, int]]] = {}
        for match, count in right.items():
            by_source.setdefault(match[0].src, []).append((match, count))
        out: Counter = Counter()
        for (left_path, left_mu), left_count in left.items():
            for (right_path, right_mu), right_count in by_source.get(
                left_path.tgt, ()
            ):
                if len(left_path) + len(right_path) > max_length:
                    continue
                merged = left_mu.unify(right_mu)
                if merged is None:
                    continue
                out[(left_path.concat(right_path), merged)] += left_count * right_count
        return out

    def _eval_union(self, pattern: ast.Union, max_length: int) -> Counter:
        union_domain = frozenset(infer_schema(pattern))
        out: Counter = Counter()
        for branch in (pattern.left, pattern.right):
            branch_bag = self._eval(branch, max_length)
            branch_domain = frozenset(infer_schema(branch))
            missing = union_domain - branch_domain
            for (path, mu), count in branch_bag.items():
                if missing:
                    padded = dict(mu)
                    padded.update({v: Nothing for v in missing})
                    mu = Assignment(padded)
                out[(path, mu)] += count
        return out

    def _eval_repeat(self, pattern: ast.Repeat, max_length: int) -> Counter:
        if min_path_length(pattern.pattern) < 1:
            raise CollectError(
                "bag semantics requires repetition bodies with positive "
                "minimum length (derivation counts diverge otherwise)"
            )
        domain = tuple(sorted(infer_schema(pattern.pattern)))
        out: Counter = Counter()
        if pattern.lower == 0:
            zero_mu = empty_group_assignment(domain)
            for node in self.graph.nodes:
                out[(Path.node(node), zero_mu)] += 1
        if pattern.upper == 0:
            return out
        base = self._eval(pattern.pattern, max_length)
        by_source: dict[NodeId, list] = {}
        for match, count in base.items():
            by_source.setdefault(match[0].src, []).append((match, count))
        seed = CollectAccumulator(mode=CollectMode.SYNTACTIC)
        current: Counter = Counter()
        for (path, mu), count in base.items():
            extended = seed.extend(path, mu)
            if extended is not None:
                current[(path, extended)] += count
        power = 1
        while current:
            if power >= pattern.lower and (
                pattern.upper is None or power <= pattern.upper
            ):
                for (path, accumulator), count in current.items():
                    out[(path, accumulator.finalize(domain))] += count
            if pattern.upper is not None and power >= pattern.upper:
                break
            if power > max_length:
                break
            next_states: Counter = Counter()
            for (path, accumulator), count in current.items():
                for (factor_path, factor_mu), factor_count in by_source.get(
                    path.tgt, ()
                ):
                    if len(path) + len(factor_path) > max_length:
                        continue
                    extended = accumulator.extend(factor_path, factor_mu)
                    if extended is None:
                        continue
                    next_states[(path.concat(factor_path), extended)] += (
                        count * factor_count
                    )
            current = next_states
            power += 1
        return out
