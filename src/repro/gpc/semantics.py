"""Bounded compositional evaluation of GPC patterns (Section 5).

The denotation ``[[pi]]_G`` of a pattern may be infinite (unbounded
repetition over a cyclic graph), so the evaluator computes the *bounded*
denotation

    ``eval(pi, L) = { (p, mu) in [[pi]]_G : len(p) <= L }``

compositionally. Restrictors (handled in :mod:`repro.gpc.engine`)
supply the bound ``L``: ``|N|`` for ``simple``, ``|E_d| + |E_u|`` for
``trail``, and iterative deepening for ``shortest``; what they keep of
the finite set that leaves is :func:`restrict`.

Repetition ``pi{n..m}`` is evaluated by iterating *powers*: partial
states are pairs of a path and a :class:`~repro.gpc.collect.CollectAccumulator`
capturing the grouped bindings so far. Termination for ``m = infinity``:

- if the body cannot match an edgeless path (or collect runs in
  SYNTACTIC/RUNTIME mode, where edgeless factors are rejected), every
  power adds at least one edge, so powers beyond ``L`` are empty;
- otherwise (GROUPING mode with edgeless bodies), the per-power state
  sets range over a finite universe and the evaluator detects cycles in
  the power sequence, mirroring the Lemma 15 argument that powers
  eventually stop producing new answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Mapping

from repro.errors import EvaluationLimitError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.snapshot import GraphSnapshot
from repro.graph.ids import NodeId
from repro.graph.paths import Path, is_simple, is_trail
from repro.graph.property_graph import PropertyGraph
from repro.gpc import ast
from repro.gpc.assignments import EMPTY_ASSIGNMENT, Assignment
from repro.gpc.collect import CollectAccumulator, CollectMode, empty_group_assignment
from repro.gpc.conditions import satisfies
from repro.gpc.minlength import min_path_length
from repro.gpc.typing import infer_schema
from repro.gpc.values import Nothing
from repro.obs.deadline import check_deadline

__all__ = ["Match", "BoundedEvaluator", "PATH_PREDICATES", "restrict"]

#: Candidate pairs a product or power loop tries between two looks at
#: the request deadline (:func:`~repro.obs.deadline.check_deadline`),
#: counted per outer iteration so the inner loops stay test-free.
#: ``max_intermediate_results`` counts what a loop *keeps*, each a
#: path concatenation, and at its default fires minutes later.
_DEADLINE_STRIDE = 4096

#: A pattern match: the matched path and the variable bindings.
Match = tuple[Path, Assignment]


#: What the ``trail`` and ``simple`` restrictor modes ask of a path.
#: Both hold of every contiguous sub-path of a path they hold of.
PATH_PREDICATES = {"trail": is_trail, "simple": is_simple}


def restrict(
    restrictor: ast.Restrictor, matches: Collection[Match]
) -> frozenset[Match]:
    """``restrictor`` applied to a finite set of matches: its mode's
    predicate filters the paths, then ``shortest`` keeps, per endpoint
    pair, the matches of minimum path length."""
    if restrictor.mode is not None:
        keep = PATH_PREDICATES[restrictor.mode]
        matches = frozenset(match for match in matches if keep(match[0]))
    if not restrictor.shortest:
        return frozenset(matches)
    minima: dict[tuple[NodeId, NodeId], int] = {}
    for path, _ in matches:
        key = (path.src, path.tgt)
        length = len(path)
        if key not in minima or length < minima[key]:
            minima[key] = length
    return frozenset(
        (path, mu)
        for path, mu in matches
        if len(path) == minima[(path.src, path.tgt)]
    )


@dataclass
class _Limits:
    """Safety limits shared with :class:`repro.gpc.engine.EngineConfig`."""

    max_intermediate_results: int = 2_000_000
    max_power_iterations: int = 10_000


class BoundedEvaluator:
    """Evaluates ``eval(pi, L)`` over a fixed graph.

    Results are memoized per ``(pattern, L)``; the evaluator is
    deliberately tied to one graph so the memo never goes stale.
    ``graph`` may be a mutable :class:`PropertyGraph` or (preferably,
    for hot paths) an immutable
    :class:`~repro.graph.snapshot.GraphSnapshot`, whose pre-built
    tuple indexes this evaluator consults directly.

    ``keep`` is a predicate that holds of every contiguous sub-path of
    a path it holds of (``is_trail``, ``is_simple``). Given one, the
    evaluator drops each path it *builds* — by concatenating two paths
    that both have edges, or by one more factor of a repetition — that
    fails it. An atomic match is built by no step, so the caller still
    filters; and the children of an extension construct are evaluated
    without ``keep``: a construct need not be monotone in its
    sub-matches (a local ``shortest`` is not).
    """

    def __init__(
        self,
        graph: "PropertyGraph | GraphSnapshot",
        collect_mode: CollectMode = CollectMode.GROUPING,
        limits: _Limits | None = None,
        keep: Callable[[Path], bool] | None = None,
        values: tuple = (),
    ):
        self.graph = graph
        self.collect_mode = collect_mode
        self.limits = limits or _Limits()
        self.keep = keep
        #: What the query's :class:`~repro.gpc.conditions_ast.Param`
        #: constants are bound to.
        self.values = values
        self._memo: dict[tuple[ast.Pattern, int], frozenset[Match]] = {}
        self._schemas: dict[ast.Pattern, Mapping[str, object]] = {}

    # ------------------------------------------------------------------

    def schema(self, pattern: ast.Pattern) -> Mapping[str, object]:
        """Memoized ``sch(pi)`` for subpatterns (used by union padding)."""
        if pattern not in self._schemas:
            self._schemas[pattern] = infer_schema(pattern)
        return self._schemas[pattern]

    def evaluate(self, pattern: ast.Pattern, max_length: int) -> frozenset[Match]:
        """All ``(p, mu) in [[pattern]]_G`` with ``len(p) <= max_length``."""
        if max_length < 0:
            return frozenset()
        key = (pattern, max_length)
        if key not in self._memo:
            self._memo[key] = self._dispatch(pattern, max_length)
        return self._memo[key]

    # ------------------------------------------------------------------

    def _dispatch(self, pattern: ast.Pattern, max_length: int) -> frozenset[Match]:
        if isinstance(pattern, ast.NodePattern):
            return self._eval_node(pattern)
        if isinstance(pattern, ast.EdgePattern):
            return self._eval_edge(pattern, max_length)
        if isinstance(pattern, ast.Concat):
            return self._eval_concat(pattern, max_length)
        if isinstance(pattern, ast.Union):
            return self._eval_union(pattern, max_length)
        if isinstance(pattern, ast.Conditioned):
            return self._eval_conditioned(pattern, max_length)
        if isinstance(pattern, ast.Repeat):
            return self._eval_repeat(pattern, max_length)
        if isinstance(pattern, ast.PatternExtension):
            plain = self
            if self.keep is not None:
                plain = BoundedEvaluator(
                    self.graph, self.collect_mode, self.limits, values=self.values
                )
            return frozenset(pattern.evaluate_ext(plain, max_length))
        raise TypeError(f"not a pattern: {pattern!r}")

    # -- atomic patterns -------------------------------------------------

    def _eval_node(self, pattern: ast.NodePattern) -> frozenset[Match]:
        if pattern.label is None:
            nodes = self.graph.nodes
        else:
            nodes = self.graph.nodes_with_label(pattern.label)
        variable = pattern.variable
        out = []
        for node in nodes:
            mu = (
                Assignment({variable: node})
                if variable is not None
                else EMPTY_ASSIGNMENT
            )
            out.append((Path.node(node), mu))
        return frozenset(out)

    def _eval_edge(
        self, pattern: ast.EdgePattern, max_length: int
    ) -> frozenset[Match]:
        if max_length < 1:
            return frozenset()
        graph = self.graph
        label = pattern.label
        variable = pattern.variable
        out: list[Match] = []

        def emit(a: NodeId, edge, b: NodeId) -> None:
            mu = (
                Assignment({variable: edge})
                if variable is not None
                else EMPTY_ASSIGNMENT
            )
            out.append((Path.of(a, edge, b), mu))

        # The label indexes do the filtering (a dict lookup on
        # snapshots), so the loops below stay test-free.
        if pattern.direction is ast.Direction.FORWARD:
            edges = (
                graph.directed_edges
                if label is None
                else graph.directed_edges_with_label(label)
            )
            for edge in edges:
                emit(graph.source(edge), edge, graph.target(edge))
        elif pattern.direction is ast.Direction.BACKWARD:
            edges = (
                graph.directed_edges
                if label is None
                else graph.directed_edges_with_label(label)
            )
            for edge in edges:
                emit(graph.target(edge), edge, graph.source(edge))
        else:
            uedges = (
                graph.undirected_edges
                if label is None
                else graph.undirected_edges_with_label(label)
            )
            for edge in uedges:
                ends = sorted(graph.endpoints(edge))
                if len(ends) == 1:
                    emit(ends[0], edge, ends[0])
                else:
                    emit(ends[0], edge, ends[1])
                    emit(ends[1], edge, ends[0])
        return frozenset(out)

    # -- composite patterns ----------------------------------------------

    def _eval_concat(self, pattern: ast.Concat, max_length: int) -> frozenset[Match]:
        left_min = min_path_length(pattern.left)
        right_min = min_path_length(pattern.right)
        left = self.evaluate(pattern.left, max_length - right_min)
        right = self.evaluate(pattern.right, max_length - left_min)
        by_source: dict[NodeId, list[Match]] = {}
        for path, mu in right:
            by_source.setdefault(path.src, []).append((path, mu))
        out: set[Match] = set()
        keep = self.keep
        next_check = _DEADLINE_STRIDE
        for left_path, left_mu in left:
            candidates = by_source.get(left_path.tgt, ())
            next_check -= len(candidates) + 1
            if next_check < 0:
                check_deadline()
                next_check = _DEADLINE_STRIDE
            for right_path, right_mu in candidates:
                if len(left_path) + len(right_path) > max_length:
                    continue
                merged = left_mu.unify(right_mu)
                if merged is None:
                    continue
                path = left_path.concat(right_path)
                # Joined to an edgeless path a path is itself again:
                # checked where it was built, or atomic.
                if (
                    keep is None
                    or left_path.is_edgeless
                    or right_path.is_edgeless
                    or keep(path)
                ):
                    out.add((path, merged))
                    self._check_size(out)
        return frozenset(out)

    def _eval_union(self, pattern: ast.Union, max_length: int) -> frozenset[Match]:
        union_domain = frozenset(self.schema(pattern))
        out: set[Match] = set()
        for branch in (pattern.left, pattern.right):
            branch_results = self.evaluate(branch, max_length)
            branch_domain = frozenset(self.schema(branch))
            missing = union_domain - branch_domain
            if missing:
                padding = {variable: Nothing for variable in missing}
                for path, mu in branch_results:
                    padded = dict(mu)
                    padded.update(padding)
                    out.add((path, Assignment(padded)))
            else:
                out.update(branch_results)
            self._check_size(out)
        return frozenset(out)

    def _eval_conditioned(
        self, pattern: ast.Conditioned, max_length: int
    ) -> frozenset[Match]:
        inner = self.evaluate(pattern.pattern, max_length)
        return frozenset(
            (path, mu)
            for path, mu in inner
            if satisfies(self.graph, mu, pattern.condition, self.values)
        )

    # -- repetition --------------------------------------------------------

    def _eval_repeat(self, pattern: ast.Repeat, max_length: int) -> frozenset[Match]:
        body = pattern.pattern
        lower, upper = pattern.lower, pattern.upper
        domain = tuple(sorted(self.schema(body)))
        answers: set[Match] = set()

        # Power 0: the edgeless path at every node, all variables bound
        # to the empty list.
        if lower == 0:
            zero_mu = empty_group_assignment(domain)
            for node in self.graph.nodes:
                answers.add((Path.node(node), zero_mu))
        if upper == 0:
            return frozenset(answers)

        base = self.evaluate(body, max_length)
        if not base:
            return frozenset(answers)
        by_source: dict[NodeId, list[Match]] = {}
        for path, mu in base:
            by_source.setdefault(path.src, []).append((path, mu))

        # Power 1 states.
        State = tuple[Path, CollectAccumulator]
        seed = CollectAccumulator(mode=self.collect_mode)
        current: set[State] = set()
        for path, mu in base:
            extended = seed.extend(path, mu)
            if extended is not None:
                current.add((path, extended))

        sound_cap = self._repeat_sound_cap(pattern, max_length, base)
        history: dict[frozenset[State], int] = {}
        power = 1
        keep = self.keep
        next_check = _DEADLINE_STRIDE
        while True:
            if not current:
                break
            check_deadline()
            if power >= lower and (upper is None or power <= upper):
                for path, accumulator in current:
                    answers.add((path, accumulator.finalize(domain)))
                self._check_size(answers)
            if upper is not None and power >= upper:
                break
            if power >= sound_cap and power >= lower:
                # Lemma 15: beyond the bound B every power's answers are
                # already included in an earlier power's, so stop.
                break
            frozen = frozenset(current)
            if frozen in history:
                # The power sequence cycles: every later power's state
                # set already occurred. Add answers for all state sets
                # in the cycle that correspond to powers >= lower.
                first = history[frozen]
                self._absorb_cycle(
                    history, first, power, lower, upper, domain, answers
                )
                break
            history[frozen] = power
            if power >= self.limits.max_power_iterations:
                raise EvaluationLimitError(
                    f"repetition exceeded {self.limits.max_power_iterations} "
                    f"power iterations without converging "
                    f"(bounds {lower}..{upper}); raise "
                    f"EngineConfig.max_power_iterations if intended"
                )
            # Step: extend every partial match by one more factor.
            next_states: set[State] = set()
            for path, accumulator in current:
                factors = by_source.get(path.tgt, ())
                next_check -= len(factors) + 1
                if next_check < 0:
                    check_deadline()
                    next_check = _DEADLINE_STRIDE
                for factor_path, factor_mu in factors:
                    if len(path) + len(factor_path) > max_length:
                        continue
                    longer = path.concat(factor_path)
                    if keep is not None and not keep(longer):
                        continue
                    extended = accumulator.extend(factor_path, factor_mu)
                    if extended is None:
                        continue
                    next_states.add((longer, extended))
                    self._check_size(next_states)
            current = next_states
            power += 1
        return frozenset(answers)

    def _absorb_cycle(
        self,
        history: dict[frozenset, int],
        cycle_start: int,
        current_power: int,
        lower: int,
        upper: int | None,
        domain: tuple[str, ...],
        answers: set[Match],
    ) -> None:
        """When the power-state sequence cycles, powers ``>= cycle_start``
        repeat with period ``current_power - cycle_start``. Any state
        set in the cycle therefore occurs at arbitrarily large powers,
        so (for unbounded ``upper``) each contributes answers as soon as
        some power ``>= lower`` hits it."""
        period = current_power - cycle_start
        by_index = {index: states for states, index in history.items()}
        for index in range(cycle_start, current_power):
            states = by_index[index]
            # Powers hitting this state set: index, index+period, ...
            reachable_power = index
            while reachable_power < lower:
                reachable_power += period
            if upper is not None and reachable_power > upper:
                continue
            for path, accumulator in states:
                answers.add((path, accumulator.finalize(domain)))

    def _repeat_sound_cap(
        self, pattern: ast.Repeat, max_length: int, base: frozenset[Match]
    ) -> int:
        """The largest power that can still contribute new answers.

        If every factor adds an edge (which holds whenever the body
        cannot match an edgeless path, and always under the SYNTACTIC
        and RUNTIME collect modes), powers beyond ``max_length`` are
        empty. Otherwise the Lemma 15 bound ``B = (L + 1)(M + 1)``
        applies, with ``M`` the largest per-node count of edgeless body
        matches. Cycle detection usually stops iteration much earlier;
        this cap is the proof-backed fail-safe.
        """
        if (
            self.collect_mode is not CollectMode.GROUPING
            or min_path_length(pattern.pattern) >= 1
        ):
            return max_length + 1
        per_node: dict[NodeId, int] = {}
        for path, _ in base:
            if path.is_edgeless:
                per_node[path.src] = per_node.get(path.src, 0) + 1
        m = max(per_node.values(), default=0)
        return (max_length + 1) * (m + 1)

    # ------------------------------------------------------------------

    def _check_size(self, collection) -> None:
        if len(collection) > self.limits.max_intermediate_results:
            raise EvaluationLimitError(
                f"intermediate result exceeded "
                f"{self.limits.max_intermediate_results} entries; "
                f"raise EngineConfig.max_intermediate_results if intended"
            )
