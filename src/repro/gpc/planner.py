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
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Optional

from repro.direction import Direction
from repro.gpc import ast
from repro.gpc.conditions_ast import And, Condition, PropertyEqualsConst, resolve
from repro.gpc.minlength import max_length_step
from repro.gpc.typing import infer_schema
from repro.graph.statistics import compute_label_cardinalities

__all__ = [
    "NodeConstraint",
    "EndpointConstraint",
    "ShortestPlan",
    "plan_shortest",
    "split_pushdown",
    "join_shared_variables",
    "bind_variable",
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

    def admits(self, view, node, values: tuple = ()) -> bool:
        """Whether ``node`` satisfies this conjunction in ``view``, its
        parameter slots bound to ``values``."""
        node_labels = view.labels(node)
        if any(label not in node_labels for label in self.labels):
            return False
        return all(
            view.get_property(node, key) == resolve(value, values)
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

    def candidate_nodes(self, view, values: tuple = ()):
        """The nodes that can satisfy some alternative (parameter slots
        bound to ``values``), or ``None`` when the endpoint is
        unconstrained.

        Resolution prefers the smallest label index of each
        alternative; property-only alternatives scan the node carrier
        (still a win: each excluded node skips a whole register-NFA
        search). The result is sorted for deterministic evaluation.
        """
        if not self.constrains:
            return None
        (alt, *others) = self.alternatives
        if not others and not alt.properties and len(alt.labels) == 1:
            members = view.nodes_with_label(*alt.labels)
            if isinstance(members, tuple):  # a snapshot's, sorted
                return members
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
                if node not in out and alt.admits(view, node, values):
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


def plan_shortest(pattern: ast.Pattern) -> ShortestPlan:
    """Extract the leading and trailing endpoint constraints.

    Pure in an immutable pattern and not memoised here: the
    :class:`~repro.gpc.engine.QueryPlan` that wants it keeps it (and
    hands the same record to the static analyzer's
    unanchored-``shortest`` check).
    """
    start, end, _longest = ast.fold(pattern, _endpoints_step)
    return ShortestPlan(EndpointConstraint(start), EndpointConstraint(end))


def split_pushdown(
    condition: Condition,
) -> tuple[dict[str, frozenset[tuple[str, object]]], Optional[Condition]]:
    """Decompose a condition for predicate pushdown.

    Returns ``(atoms, residue)``: ``atoms`` maps each variable to the
    ``x.key = const`` atoms on the condition's positive ``And`` spine
    (every satisfying assignment must meet them; anything under
    ``or``/``not`` is optional and stays behind — endpoint pruning and
    the static analyzer read the same atoms), and
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


#: The boundary-node constraint disjunction of one end of a pattern,
#: or ``None`` when unconstrained. Soundness invariant: every match's
#: source (leading end) or target (trailing end) node satisfies at
#: least one alternative.
_Alternatives = Optional[tuple[NodeConstraint, ...]]

#: What the fold knows of a subpattern: its leading and trailing
#: alternatives and its maximum match length.
_Ends = tuple[_Alternatives, _Alternatives, Optional[int]]


def _endpoints_step(pattern: ast.Pattern, parts: tuple[_Ends, ...]) -> _Ends:
    """The :data:`_Ends` of ``pattern`` from those of its subpatterns
    (a step for ``ast.fold``)."""
    longest = max_length_step(pattern, tuple([part[2] for part in parts]))
    if isinstance(pattern, ast.NodePattern):
        labels = (
            frozenset((pattern.label,)) if pattern.label else frozenset()
        )
        node = (NodeConstraint(labels, frozenset(), pattern.variable),)
        return node, node, longest
    if isinstance(pattern, ast.EdgePattern):
        # The traversal's endpoint node is unconstrained, but keeping a
        # trivial alternative lets an enclosing Concat still contribute.
        anywhere = (NodeConstraint(),)
        return anywhere, anywhere, longest
    if isinstance(pattern, ast.Concat):
        left, right = parts
        return (
            _boundary(left[0], left[2], right[0]),
            _boundary(right[1], right[2], left[1]),
            longest,
        )
    if isinstance(pattern, ast.Union):
        left, right = parts
        return _either(left[0], right[0]), _either(left[1], right[1]), longest
    if isinstance(pattern, ast.Conditioned):
        required = split_pushdown(pattern.condition)[0]
        if not required:
            return parts[0]
        leading, trailing, _ = parts[0]
        return _require(leading, required), _require(trailing, required), longest
    if isinstance(pattern, ast.Repeat) and pattern.lower > 0:
        leading, trailing, _ = parts[0]
        return _anonymous(leading), _anonymous(trailing), longest
    # Zero iterations match any single-node path; extension constructs
    # are conservatively unconstrained.
    return None, None, longest


def _require(
    alternatives: _Alternatives,
    required: dict[str, frozenset[tuple[str, object]]],
) -> _Alternatives:
    """``alternatives`` under a condition that forces ``required``."""
    if alternatives is None:
        return None
    return tuple(
        replace(
            alt,
            properties=alt.properties
            | required.get(alt.variable or "", frozenset()),
        )
        for alt in alternatives
    )


def _anonymous(alternatives: _Alternatives) -> _Alternatives:
    """``alternatives`` seen from outside a repetition: body variables
    become group-typed there, so no enclosing condition can constrain
    them."""
    if alternatives is None:
        return None
    return tuple(replace(alt, variable=None) for alt in alternatives)


def _either(left: _Alternatives, right: _Alternatives) -> _Alternatives:
    if left is None or right is None:
        return None
    return _capped(left + right)


def _boundary(
    outer: _Alternatives, outer_longest: Optional[int], inner: _Alternatives
) -> _Alternatives:
    """One end of a concatenation: the alternatives of the factor at
    that end, conjoined with the other factor's when the boundary
    factor is always a single node (the same node is then the other
    factor's boundary too)."""
    if outer is None:
        return None
    if outer_longest == 0 and inner is not None:
        outer = tuple(
            NodeConstraint(
                a.labels | b.labels,
                a.properties | b.properties,
                a.variable or b.variable,
            )
            for a in outer
            for b in inner
        )
    return _capped(outer)


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


def bind_variable(join: ast.Join, shared: tuple[str, ...]) -> str | None:
    """The shared variable every path of the join's right side starts
    at, or ``None``: the node pattern the right side's pattern query
    opens with, under conditions and concatenations only, when it binds
    one of ``shared``. The bind join seeds that side with the first
    side's values of it (sideways passing of bindings)."""
    if not isinstance(join.right, ast.PatternQuery):
        return None
    pattern = join.right.pattern
    while isinstance(pattern, (ast.Conditioned, ast.Concat)):
        pattern = pattern.pattern if isinstance(pattern, ast.Conditioned) else pattern.left
    if isinstance(pattern, ast.NodePattern) and pattern.variable in shared:
        return pattern.variable
    return None


def _shared_variables(join: ast.Join, plan) -> tuple[str, ...]:
    """:func:`join_shared_variables`, from the memo of ``plan`` (a
    :class:`~repro.gpc.engine.QueryPlan`) when there is one."""
    if plan is not None:
        return plan.join_variables(join)
    return join_shared_variables(join)


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
    the fold is pure arithmetic.
    """
    return _estimate(pattern, compute_label_cardinalities(view))


def _estimate(expression: ast.Expression, cards, plan=None) -> float:
    return ast.fold(expression, partial(_estimate_step, cards, plan))


def _estimate_step(
    cards, plan, expression: ast.Expression, parts: tuple[float, ...]
) -> float:
    """The estimated match (or answer) count of ``expression`` from
    those of its sub-expressions (a step for ``ast.fold``)."""
    num_nodes = max(1, cards.num_nodes)
    if isinstance(expression, ast.NodePattern):
        if expression.label is not None:
            return float(max(1, cards.nodes_with_label(expression.label)))
        return float(num_nodes)
    if isinstance(expression, ast.EdgePattern):
        if expression.direction is Direction.UNDIRECTED:
            count = (
                cards.undirected_edges_with_label(expression.label)
                if expression.label is not None
                else cards.num_undirected_edges
            )
        else:
            count = (
                cards.directed_edges_with_label(expression.label)
                if expression.label is not None
                else cards.num_directed_edges
            )
        return float(max(1, count))
    if isinstance(expression, ast.Concat):
        return min(_CARDINALITY_CAP, parts[0] * parts[1] / num_nodes)
    if isinstance(expression, ast.Union):
        return min(_CARDINALITY_CAP, parts[0] + parts[1])
    if isinstance(expression, ast.Conditioned):
        atoms = sum(
            len(v) for v in split_pushdown(expression.condition)[0].values()
        )
        return parts[0] * (0.5 ** min(3, max(1, atoms)))
    if isinstance(expression, ast.Repeat):
        factor = parts[0] / num_nodes
        lower = expression.lower
        upper = expression.upper if expression.upper is not None else lower + 4
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
    if isinstance(expression, ast.PatternQuery):
        if expression.restrictor.shortest:
            # Shortest keeps one length class per endpoint pair.
            return min(parts[0], float(num_nodes * num_nodes))
        return parts[0]
    if isinstance(expression, ast.Join):
        shared = _shared_variables(expression, plan)
        return min(
            _CARDINALITY_CAP,
            parts[0] * parts[1] / (float(num_nodes) ** len(shared)),
        )
    # Extension constructs: a neutral guess.
    return float(num_nodes)


def estimate_query_cardinality(query: ast.Query, view, plan=None) -> float:
    """Estimated answer count of a query (used to order join sides).

    ``plan`` may be a :class:`~repro.gpc.engine.QueryPlan` (or anything
    with a ``join_variables`` method): its memo then supplies the
    shared variables of each join, so repeated estimation — the engine
    estimates per execution — never re-runs schema inference.
    """
    return _estimate(query, compute_label_cardinalities(view), plan)


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
            **asdict(self),
            "shared": list(self.shared),
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
            **asdict(self),
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
    sides: dict[int, tuple[float, ...]] = {}

    def step(expression: ast.Expression, parts: tuple[float, ...]) -> float:
        if isinstance(expression, ast.Join):
            sides[id(expression)] = parts
        return _estimate_step(cards, plan, expression, parts)

    cards = compute_label_cardinalities(view)
    cardinality = ast.fold(query, step)
    return PlanEstimates(
        cardinality=cardinality,
        joins=tuple(
            JoinEstimate(_shared_variables(q, plan), *sides[id(q)])
            for q in ast.iter_queries(query)
            if isinstance(q, ast.Join)
        ),
    )


# ---------------------------------------------------------------------------
# Plan explanation
# ---------------------------------------------------------------------------


#: The routes a bare ``shortest`` takes, by the names ``explain``
#: prints: the engine's ``PatternPlan.route`` picks one, its evaluator
#: executes it.
REGISTER = "register-NFA shortest"
BOUNDED_FILTER = "bounded evaluation + shortest filter"
DEEPENING = "abstraction-guided deepening"


def describe_route(restrictor: ast.Restrictor, route: str, why) -> str:
    """How a pattern query is served when its pattern takes ``route``,
    and why its register NFA cannot serve it if it cannot."""
    mode = restrictor.mode
    if mode is not None:
        bound = "|E|, pruned to trails" if mode == "trail" else "|N|, pruned to simple"
        route = f"register-NFA {mode} walk" if route is REGISTER else (
            f"bounded eval at {bound} while building, filtered once"
        )
    text = route if why is None else f"{route} ({why})"
    return text + (", then per-pair minima" if restrictor.shortest and mode else "")


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
            shared = _shared_variables(q, plan)
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
            bound = bind_variable(q, shared)
            if bound is not None:
                lines.append(
                    f"{indent}- bind join on {bound}: when the left side runs"
                    f" first, the right side starts at its values of {bound}"
                )
            for side in ast.children(q):
                walk(side, depth + 1)
            return
        if plan is None:  # only the endpoints are known
            shortest = plan_shortest(q.pattern)
            route, rnfa, why = REGISTER, None, None
        else:
            record = plan.pattern_plan(q.pattern)
            shortest, (route, rnfa, why) = record.shortest_plan, record.route
        line = (
            f"{indent}- {q.restrictor} {pretty(q.pattern)}: "
            f"{describe_route(q.restrictor, route, why)}; "
            f"starts: {shortest.start.describe(view)}; "
            f"ends: {shortest.end.describe(view)}"
        )
        if rnfa is not None:
            line += "; search: " + _describe_registers(rnfa.constraining)
            grouped = sorted(
                {
                    variable
                    for sub in ast.iter_subpatterns(q.pattern)
                    if isinstance(sub, ast.Repeat)
                    for variable in ast.variables(sub.pattern)
                }
            )
            line += "; assignments: register run" + (
                f" (groups {', '.join(grouped)})" if grouped else ""
            )
        lines.append(line)

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
