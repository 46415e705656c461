"""Cost-aware query planning for the GPC engine.

The planner analyses a query once (memoised per plan by
:class:`~repro.gpc.engine.QueryPlan`) and drives three answer-preserving
optimisations in the evaluator:

**Hash joins.** The Figure 2 typing rules only let *singleton*
(Node/Edge) variables be shared across a join, and every answer binds
exactly its schema (Proposition 2). Two answers therefore combine iff
they agree on the join's shared variables — so bucketing both sides on
those bindings and combining only within buckets yields exactly the
nested-loop result in ``O(|L| + |R| + |out|)`` instead of
``O(|L| * |R|)``. :func:`join_shared_variables` computes the shared
variables from the sides' inferred schemas.

**Endpoint pruning for ``shortest``.** Every match of a pattern starts
(ends) at a node satisfying the pattern's leading (trailing) node
constraints: labels from the boundary :class:`~repro.gpc.ast.NodePattern`
and constant property equalities that a surrounding condition forces on
the boundary variable. :func:`plan_shortest` extracts those constraints
(a small disjunction of conjunctive alternatives — unions contribute one
alternative per branch), and
:meth:`EndpointConstraint.candidate_nodes` resolves them against a
snapshot's label indexes, so the register-NFA search is seeded from the
few viable start nodes instead of the whole node set.

**Cardinality-ordered joins.** :func:`estimate_query_cardinality` gives
a cheap answer-count estimate from the snapshot's per-label counts
(:meth:`~repro.graph.snapshot.GraphSnapshot.label_cardinalities`). The
evaluator runs the cheaper join side first — if it comes back empty the
expensive side is never evaluated — and builds the hash table on the
smaller materialised side.

All three transformations are provably answer-preserving: they never
change *which* answers are produced, only how many candidate pairs and
start nodes are inspected on the way. :func:`explain_plan` renders the
chosen strategies for inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from repro.gpc import ast
from repro.gpc.conditions_ast import And, Condition, PropertyEqualsConst
from repro.gpc.minlength import max_path_length
from repro.gpc.typing import infer_schema
from repro.graph.statistics import compute_label_cardinalities

__all__ = [
    "NodeConstraint",
    "EndpointConstraint",
    "ShortestPlan",
    "plan_shortest",
    "split_pushdown",
    "join_shared_variables",
    "estimate_pattern_cardinality",
    "estimate_query_cardinality",
    "JoinEstimate",
    "PlanEstimates",
    "estimate_plan",
    "explain_plan",
]

#: Beyond this many disjunctive alternatives the analysis gives up and
#: reports the endpoint as unconstrained (pruning would cost more than
#: it saves, and candidate sets stay exact either way).
MAX_ALTERNATIVES = 8

#: Cardinality estimates saturate here (repetitions grow geometrically).
_CARDINALITY_CAP = 1e18


# ---------------------------------------------------------------------------
# Endpoint constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeConstraint:
    """One conjunctive constraint a boundary node must satisfy.

    ``labels`` must all be carried by the node; every ``(key, value)``
    in ``properties`` must hold with equality. ``variable`` records the
    boundary node's bound variable (if any) so surrounding conditions
    can contribute property constraints.
    """

    labels: frozenset[str] = frozenset()
    properties: frozenset[tuple[str, object]] = frozenset()
    variable: Optional[str] = None

    @property
    def is_trivial(self) -> bool:
        return not self.labels and not self.properties

    def admits(self, view, node) -> bool:
        """Whether ``node`` satisfies this conjunction in ``view``."""
        node_labels = view.labels(node)
        if any(label not in node_labels for label in self.labels):
            return False
        return all(
            view.get_property(node, key) == value
            for key, value in self.properties
        )

    def describe(self) -> str:
        parts = [f":{label}" for label in sorted(self.labels)]
        parts.extend(
            f".{key}={value!r}" for key, value in sorted(
                self.properties, key=repr
            )
        )
        return " & ".join(parts) if parts else "(any node)"


@dataclass(frozen=True)
class EndpointConstraint:
    """A disjunction of :class:`NodeConstraint` alternatives.

    ``alternatives is None`` means the analysis could not bound the
    endpoint (the pattern may start/end anywhere).
    """

    alternatives: Optional[tuple[NodeConstraint, ...]]

    @property
    def constrains(self) -> bool:
        """Whether candidate generation can prune anything at all."""
        if self.alternatives is None:
            return False
        return all(not alt.is_trivial for alt in self.alternatives)

    def candidate_nodes(self, view):
        """The nodes that can satisfy some alternative, or ``None``
        when the endpoint is unconstrained.

        Resolution prefers the smallest label index of each
        alternative; property-only alternatives scan the node carrier
        (still a win: each excluded node skips a whole register-NFA
        search). The result is sorted for deterministic evaluation.
        """
        if not self.constrains:
            return None
        out: set = set()
        for alt in self.alternatives:
            if alt.labels:
                base = min(
                    (view.nodes_with_label(l) for l in sorted(alt.labels)),
                    key=len,
                )
            else:
                base = view.nodes
            for node in base:
                if node not in out and alt.admits(view, node):
                    out.add(node)
        return tuple(sorted(out))

    def describe(self, view=None) -> str:
        if not self.constrains:
            return "all nodes (unconstrained)"
        rendered = " | ".join(alt.describe() for alt in self.alternatives)
        if view is not None:
            candidates = self.candidate_nodes(view)
            total = view.num_nodes
            return f"{rendered} ({len(candidates)}/{total} nodes)"
        return rendered


@dataclass(frozen=True)
class ShortestPlan:
    """Start/end pruning constraints for one ``shortest`` pattern."""

    start: EndpointConstraint
    end: EndpointConstraint


@lru_cache(maxsize=1024)
def plan_shortest(pattern: ast.Pattern) -> ShortestPlan:
    """Extract the leading and trailing endpoint constraints.

    Pure in an immutable pattern, and wanted by several independent
    consumers per query (the static analyzer's unanchored-``shortest``
    check, each :class:`~repro.gpc.engine.QueryPlan`'s precompile),
    so it is memoised at module level rather than per plan.
    """
    return ShortestPlan(
        start=EndpointConstraint(_endpoint_alternatives(pattern, leading=True)),
        end=EndpointConstraint(_endpoint_alternatives(pattern, leading=False)),
    )


def _required_const_atoms(
    condition: Condition,
) -> dict[str, frozenset[tuple[str, object]]]:
    """Per-variable ``x.key = const`` atoms that *every* satisfying
    assignment must meet: atoms on the positive spine of a conjunction
    (anything under ``or``/``not`` is optional and ignored)."""
    out: dict[str, set[tuple[str, object]]] = {}
    stack: list[Condition] = [condition]
    while stack:
        current = stack.pop()
        if isinstance(current, And):
            stack.append(current.left)
            stack.append(current.right)
        elif isinstance(current, PropertyEqualsConst):
            out.setdefault(current.variable, set()).add(
                (current.key, current.constant)
            )
    return {variable: frozenset(atoms) for variable, atoms in out.items()}


def split_pushdown(
    condition: Condition,
) -> tuple[dict[str, frozenset[tuple[str, object]]], Optional[Condition]]:
    """Decompose a condition for predicate pushdown.

    Returns ``(atoms, residue)``: ``atoms`` maps each variable to the
    ``x.key = const`` atoms on the condition's positive ``And`` spine
    (the same walk :func:`_required_const_atoms` uses for endpoint
    pruning — every satisfying assignment must meet them), and
    ``residue`` is the condition with those atoms removed, or ``None``
    when the conjunction was consumed entirely. Re-conjoining every
    atom with the residue is equivalent to the original condition, so
    a compiler may evaluate the atoms early (at the bind/step site of
    their variable) and only the residue at check time.
    """
    atoms: dict[str, set[tuple[str, object]]] = {}

    def walk(current: Condition) -> Optional[Condition]:
        if isinstance(current, And):
            left = walk(current.left)
            right = walk(current.right)
            if left is None:
                return right
            if right is None:
                return left
            return And(left, right)
        if isinstance(current, PropertyEqualsConst):
            atoms.setdefault(current.variable, set()).add(
                (current.key, current.constant)
            )
            return None
        return current

    residue = walk(condition)
    return (
        {variable: frozenset(found) for variable, found in atoms.items()},
        residue,
    )


def _endpoint_alternatives(
    pattern: ast.Pattern, leading: bool
) -> Optional[tuple[NodeConstraint, ...]]:
    """The boundary-node constraint disjunction, or ``None`` when
    unconstrained. Soundness invariant: every match's source (leading)
    or target (trailing) node satisfies at least one alternative."""
    if isinstance(pattern, ast.NodePattern):
        labels = (
            frozenset((pattern.label,)) if pattern.label else frozenset()
        )
        return (NodeConstraint(labels, frozenset(), pattern.variable),)
    if isinstance(pattern, ast.EdgePattern):
        # The traversal's endpoint node is unconstrained, but keeping a
        # trivial alternative lets an enclosing Concat still contribute.
        return (NodeConstraint(),)
    if isinstance(pattern, ast.Concat):
        first, second = (
            (pattern.left, pattern.right)
            if leading
            else (pattern.right, pattern.left)
        )
        alternatives = _endpoint_alternatives(first, leading)
        if alternatives is None:
            return None
        if max_path_length(first) == 0:
            # The boundary factor is always a single node, so the same
            # node is also the second factor's boundary: conjoin.
            other = _endpoint_alternatives(second, leading)
            if other is not None:
                alternatives = tuple(
                    NodeConstraint(
                        a.labels | b.labels,
                        a.properties | b.properties,
                        a.variable or b.variable,
                    )
                    for a in alternatives
                    for b in other
                )
        return _capped(alternatives)
    if isinstance(pattern, ast.Union):
        left = _endpoint_alternatives(pattern.left, leading)
        right = _endpoint_alternatives(pattern.right, leading)
        if left is None or right is None:
            return None
        return _capped(left + right)
    if isinstance(pattern, ast.Conditioned):
        alternatives = _endpoint_alternatives(pattern.pattern, leading)
        if alternatives is None:
            return None
        required = _required_const_atoms(pattern.condition)
        if not required:
            return alternatives
        return tuple(
            replace(
                alt,
                properties=alt.properties
                | required.get(alt.variable or "", frozenset()),
            )
            for alt in alternatives
        )
    if isinstance(pattern, ast.Repeat):
        if pattern.lower == 0:
            # Zero iterations match any single-node path.
            return None
        alternatives = _endpoint_alternatives(pattern.pattern, leading)
        if alternatives is None:
            return None
        # Body variables become group-typed outside the repetition, so
        # no enclosing condition can constrain them: drop them.
        return tuple(
            replace(alt, variable=None) for alt in alternatives
        )
    # Extension constructs: conservatively unconstrained.
    return None


def _capped(
    alternatives: tuple[NodeConstraint, ...]
) -> Optional[tuple[NodeConstraint, ...]]:
    return alternatives if len(alternatives) <= MAX_ALTERNATIVES else None


# ---------------------------------------------------------------------------
# Join analysis
# ---------------------------------------------------------------------------


def join_shared_variables(join: ast.Join) -> tuple[str, ...]:
    """The variables shared by the two sides of a join, sorted.

    By the Figure 2 join rule these are exactly the variables two
    answers must agree on to combine — and the type system guarantees
    they are singletons, so their values are plain node/edge ids and
    safe to use as hash keys.
    """
    left = infer_schema(join.left)
    right = infer_schema(join.right)
    return tuple(sorted(left.keys() & right.keys()))


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------


def estimate_pattern_cardinality(pattern: ast.Pattern, view) -> float:
    """A cheap estimate of how many matches ``pattern`` has in ``view``.

    The model only needs to *order* join sides, not predict counts:
    node/edge atoms contribute their per-label counts, concatenation
    joins on the shared endpoint node (divide by ``|N|``), union adds,
    repetition grows geometrically with the per-iteration expansion
    factor (truncated and capped). Counts come from the snapshot's
    memoised :class:`~repro.graph.statistics.LabelCardinalities`, so
    the recursion is pure arithmetic.
    """
    return _estimate_pattern(pattern, compute_label_cardinalities(view))


def _estimate_pattern(pattern: ast.Pattern, cards) -> float:
    num_nodes = max(1, cards.num_nodes)
    if isinstance(pattern, ast.NodePattern):
        if pattern.label is not None:
            return float(max(1, cards.nodes_with_label(pattern.label)))
        return float(num_nodes)
    if isinstance(pattern, ast.EdgePattern):
        from repro.direction import Direction

        if pattern.direction is Direction.UNDIRECTED:
            count = (
                cards.undirected_edges_with_label(pattern.label)
                if pattern.label is not None
                else cards.num_undirected_edges
            )
        else:
            count = (
                cards.directed_edges_with_label(pattern.label)
                if pattern.label is not None
                else cards.num_directed_edges
            )
        return float(max(1, count))
    if isinstance(pattern, ast.Concat):
        left = _estimate_pattern(pattern.left, cards)
        right = _estimate_pattern(pattern.right, cards)
        return min(_CARDINALITY_CAP, left * right / num_nodes)
    if isinstance(pattern, ast.Union):
        return min(
            _CARDINALITY_CAP,
            _estimate_pattern(pattern.left, cards)
            + _estimate_pattern(pattern.right, cards),
        )
    if isinstance(pattern, ast.Conditioned):
        inner = _estimate_pattern(pattern.pattern, cards)
        atoms = sum(
            len(v) for v in _required_const_atoms(pattern.condition).values()
        )
        return inner * (0.5 ** min(3, max(1, atoms)))
    if isinstance(pattern, ast.Repeat):
        factor = _estimate_pattern(pattern.pattern, cards) / num_nodes
        lower = pattern.lower
        upper = pattern.upper if pattern.upper is not None else lower + 4
        upper = min(upper, lower + 4)  # geometric tail truncation
        # Guard the initial power: past the cap, ``factor ** lower``
        # would overflow float range and raise before min() could
        # clamp it (e.g. a {600,600} repetition on a dense graph).
        if factor > 1.0 and (
            math.log(num_nodes) + lower * math.log(factor)
            >= math.log(_CARDINALITY_CAP)
        ):
            return _CARDINALITY_CAP
        term = num_nodes * (factor ** lower)
        total = 0.0
        for _ in range(lower, upper + 1):
            total += term
            if total >= _CARDINALITY_CAP:
                return _CARDINALITY_CAP
            term *= factor
        return max(1.0, total)
    # Extension constructs: a neutral guess.
    return float(num_nodes)


def estimate_query_cardinality(query: ast.Query, view, plan=None) -> float:
    """Estimated answer count of a query (used to order join sides).

    ``plan`` may be a :class:`~repro.gpc.engine.QueryPlan` (or anything
    with a ``join_variables`` method): its memo then supplies the
    shared variables of each join, so repeated estimation — the engine
    estimates per execution — never re-runs schema inference.
    """
    return _estimate_query(query, compute_label_cardinalities(view), plan)


def _estimate_query(query: ast.Query, cards, plan=None) -> float:
    if isinstance(query, ast.PatternQuery):
        estimate = _estimate_pattern(query.pattern, cards)
        if query.restrictor.shortest:
            # Shortest keeps one length class per endpoint pair.
            num_nodes = max(1, cards.num_nodes)
            estimate = min(estimate, float(num_nodes * num_nodes))
        return estimate
    if isinstance(query, ast.Join):
        num_nodes = max(1, cards.num_nodes)
        shared = (
            plan.join_variables(query)
            if plan is not None
            else join_shared_variables(query)
        )
        left = _estimate_query(query.left, cards, plan)
        right = _estimate_query(query.right, cards, plan)
        return min(
            _CARDINALITY_CAP,
            left * right / (float(num_nodes) ** len(shared)),
        )
    raise TypeError(f"not a query: {query!r}")


# ---------------------------------------------------------------------------
# Plan estimates (stamped per plan, validated against observed work)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinEstimate:
    """The planner's pre-execution view of one join node.

    ``left``/``right`` are the estimated side cardinalities; the
    evaluator builds its hash table on the smaller materialised side
    and probes with the larger, so the derived ``build_rows``/
    ``probe_rows`` are what ``EvalCounters.join_build_rows``/
    ``join_probe_rows`` should observe if the estimates were right.
    """

    shared: tuple[str, ...]
    left: float
    right: float

    @property
    def build_rows(self) -> float:
        return min(self.left, self.right)

    @property
    def probe_rows(self) -> float:
        return max(self.left, self.right)

    def as_dict(self) -> dict[str, object]:
        return {
            "shared": list(self.shared),
            "left": self.left,
            "right": self.right,
            "build_rows": self.build_rows,
            "probe_rows": self.probe_rows,
        }


@dataclass(frozen=True)
class PlanEstimates:
    """Everything the planner predicted about a query on one snapshot:
    the overall answer cardinality plus one :class:`JoinEstimate` per
    join node (left-to-right walk order, matching execution)."""

    cardinality: float
    joins: tuple[JoinEstimate, ...] = ()

    @property
    def join_build_rows(self) -> float:
        return sum(j.build_rows for j in self.joins)

    @property
    def join_probe_rows(self) -> float:
        return sum(j.probe_rows for j in self.joins)

    def as_dict(self) -> dict[str, object]:
        return {
            "cardinality": self.cardinality,
            "joins": [j.as_dict() for j in self.joins],
            "join_build_rows": self.join_build_rows,
            "join_probe_rows": self.join_probe_rows,
        }


def estimate_plan(query: ast.Query, view, plan=None) -> PlanEstimates:
    """The planner's full pre-execution estimate record for ``query``.

    Like :func:`estimate_query_cardinality` plus a per-join breakdown,
    so observed hash-join build/probe row counters can be compared
    against what the cost model predicted. ``plan`` (a
    :class:`~repro.gpc.engine.QueryPlan`) reuses memoised analyses.
    """
    cards = compute_label_cardinalities(view)
    joins: list[JoinEstimate] = []

    def walk(q: ast.Query) -> None:
        if not isinstance(q, ast.Join):
            return
        shared = (
            plan.join_variables(q)
            if plan is not None
            else join_shared_variables(q)
        )
        joins.append(
            JoinEstimate(
                shared=tuple(shared),
                left=_estimate_query(q.left, cards, plan),
                right=_estimate_query(q.right, cards, plan),
            )
        )
        walk(q.left)
        walk(q.right)

    walk(query)
    return PlanEstimates(
        cardinality=_estimate_query(query, cards, plan),
        joins=tuple(joins),
    )


# ---------------------------------------------------------------------------
# Plan explanation
# ---------------------------------------------------------------------------


def explain_plan(query: ast.Query, view=None, plan=None) -> str:
    """Render the strategies the planner chose for ``query``.

    With a graph/snapshot ``view``, cardinality estimates and candidate
    counts are included; without one the summary is graph-independent.
    ``plan`` may be a :class:`~repro.gpc.engine.QueryPlan`, whose
    memoised analyses are then reused instead of re-deriving them.
    """
    from repro.gpc.pretty import pretty

    lines = [f"plan: {pretty(query)}"]

    def walk(q: ast.Query, depth: int) -> None:
        indent = "  " * depth
        if isinstance(q, ast.Join):
            shared = (
                plan.join_variables(q)
                if plan is not None
                else join_shared_variables(q)
            )
            if shared:
                strategy = f"hash join on [{', '.join(shared)}]"
            else:
                strategy = "cross product (no shared variables)"
            if view is not None:
                left = estimate_query_cardinality(q.left, view, plan)
                right = estimate_query_cardinality(q.right, view, plan)
                first = "left" if left <= right else "right"
                strategy += (
                    f"; evaluate {first} side first "
                    f"(est {left:.0f} vs {right:.0f})"
                )
            lines.append(f"{indent}- {strategy}")
            walk(q.left, depth + 1)
            walk(q.right, depth + 1)
            return
        restrictor = str(q.restrictor)
        if q.restrictor.shortest and q.restrictor.mode is None:
            shortest = (
                plan.shortest_plan(q.pattern)
                if plan is not None
                else plan_shortest(q.pattern)
            )
            line = (
                f"{indent}- {restrictor} {pretty(q.pattern)}: "
                f"register-NFA shortest; "
                f"starts: {shortest.start.describe(view)}; "
                f"ends: {shortest.end.describe(view)}"
            )
            if plan is not None:
                rnfa = plan.register_nfa(q.pattern)
                if rnfa is not None:
                    line += "; search: " + _describe_registers(
                        rnfa.constraining
                    )
                # Depends on the plan's collect mode.
                requirement, _padding = plan.assignment_source(q.pattern)
                if requirement is not None:
                    source = f"span matcher ({requirement})"
                else:
                    grouped = sorted(
                        {
                            variable
                            for sub in ast.iter_subpatterns(q.pattern)
                            if isinstance(sub, ast.Repeat)
                            for variable in ast.variables(sub.pattern)
                        }
                    )
                    source = "register run" + (
                        f" (groups {', '.join(grouped)})" if grouped else ""
                    )
                line += "; assignments: " + source
            lines.append(line)
        else:
            lines.append(
                f"{indent}- {restrictor} {pretty(q.pattern)}: "
                f"bounded evaluation + restrictor filter"
            )

    walk(query, 1)
    return "\n".join(lines)


def _describe_registers(constraining: dict) -> str:
    """The registers a ``shortest`` length search carries and why (see
    :attr:`repro.gpc.register_nfa.RegisterNFA.constraining`)."""
    from repro.gpc.pretty import pretty_condition

    if not constraining:
        return "register-free"
    reasons = dict.fromkeys(
        f"{variable} bound at {why} sites"
        if isinstance(why, int)
        else f"read by << {pretty_condition(why)} >>"
        for variable, why in constraining.items()
    )
    return f"registers {', '.join(constraining)} ({'; '.join(reasons)})"
