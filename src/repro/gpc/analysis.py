"""Compositional static analysis of GPC queries.

The calculus is built to be analysed: schemas are syntax-directed
(Figure 2), conditions only ever compare properties of *singleton*
variables, and every pattern constructor combines its parts'
denotations pointwise. This module folds per-subpattern facts over
that structure — which ``x.key = const`` atoms every match must
satisfy, which labels a variable's element must carry, whether any
match can exist at all — and turns them into three artifacts:

**Unsat proofs.** A query is *provably empty* when every model is
excluded syntactically: contradictory constant-equality atoms forced
onto one variable (on the positive ``And`` spine, or saturated across
``Concat``/``Join`` sides — shared variables are singletons, so both
sides constrain the same element), an always-false condition, a
repetition whose body is empty and must run at least once, or an
extension construct that reports itself unsatisfiable (label
expressions do boolean SAT over their atoms). The proof is
conservative and sound: ``provably_empty`` implies the answer set is
empty on *every* graph, so the engine may short-circuit without
touching the snapshot.

**Simplification.** Conditions are constant-folded (``And``/``Or``/
``Not``), structurally deduplicated, complement pairs collapse, and
tautologies are dropped — the simplified condition reaches
:func:`repro.gpc.planner.split_pushdown` with a cleaner positive
spine, so more atoms become bitmask probes. Provably-dead ``Union``
branches are pruned (unless the branch binds a variable the live one
does not: the answers carry it as ``Nothing``); a repetition with an
empty body and ``lower = 0`` is rewritten to its zero-iteration form.
Every rewrite preserves the answer set exactly (a hypothesis
differential suite gates this).

**Diagnostics.** Structured :class:`Diagnostic` records with a stable
code, severity, message and a pretty-printed span pointer — the lint
surface behind ``GraphService.lint``, ``GET /lint`` and
``python -m repro.lint``.

Note one deliberate non-simplification: ``x.k = x.k`` is *not* a
tautology. The paper's semantics make any comparison over an
undefined property false, so the atom tests definedness of ``x.k``.
Equally, core label descriptors never make a pattern unsatisfiable —
elements carry label *sets*, so ``(x:A) (x:B)`` just requires both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Iterator, Optional

from repro.errors import GPCTypeError, ParseError
from repro.gpc import ast
from repro.gpc.conditions_ast import (
    And,
    Condition,
    Not,
    Or,
    Param,
    PropertyEqualsConst,
    PropertyEqualsProperty,
    iter_atoms,
)
from repro.gpc.minlength import iterates_edgeless_body, max_path_length
from repro.gpc.planner import ShortestPlan, plan_shortest, split_pushdown
from repro.gpc.pretty import pretty, pretty_condition

__all__ = [
    "Diagnostic",
    "QueryAnalysis",
    "analyze_query",
    "simplify_condition",
    "lint_query",
    "render_diagnostics",
    "PARSE_ERROR",
    "TYPE_ERROR",
    "PROVABLY_EMPTY",
    "ALWAYS_FALSE_CONDITION",
    "DEAD_UNION_BRANCH",
    "CONDITION_SIMPLIFIED",
    "TAUTOLOGY_DROPPED",
    "UNANCHORED_SHORTEST",
    "UNBOUNDED_REPEAT",
    "EDGELESS_REPEAT_BODY",
    "REPEAT_ONLY_ZERO",
    "ATOM_NOT_ON_SPINE",
]


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

#: Stable diagnostic codes. Codes are part of the lint surface —
#: tests, CI scripts and clients match on them — so they never change
#: meaning; new diagnostics get new codes.
PARSE_ERROR = "GPC000"
TYPE_ERROR = "GPC001"
PROVABLY_EMPTY = "GPC010"
ALWAYS_FALSE_CONDITION = "GPC011"
DEAD_UNION_BRANCH = "GPC012"
CONDITION_SIMPLIFIED = "GPC013"
TAUTOLOGY_DROPPED = "GPC014"
UNANCHORED_SHORTEST = "GPC020"
UNBOUNDED_REPEAT = "GPC021"
EDGELESS_REPEAT_BODY = "GPC022"
REPEAT_ONLY_ZERO = "GPC023"
ATOM_NOT_ON_SPINE = "GPC030"


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding of the static analyzer.

    ``severity`` is ``"error"`` (the query cannot run), ``"warning"``
    (it runs but is almost certainly not what was meant, or degrades
    badly) or ``"info"`` (an applied rewrite or a missed optimisation).
    ``span`` points at the offending subexpression in concrete syntax.
    """

    code: str
    severity: str
    message: str
    span: str

    def render(self) -> str:
        return f"[{self.code}] {self.severity}: {self.message} (at: {self.span})"

    def as_dict(self) -> dict[str, str]:
        return asdict(self)


def render_diagnostics(diagnostics: tuple[Diagnostic, ...]) -> str:
    """The ``explain`` diagnostics section (one line per finding)."""
    if not diagnostics:
        return "diagnostics: none"
    lines = ["diagnostics:"]
    lines.extend(f"  {diagnostic.render()}" for diagnostic in diagnostics)
    return "\n".join(lines)


def _span(expression: object) -> str:
    """A pretty-printed pointer at ``expression`` (extensions and other
    constructs the printer does not know fall back to ``repr``)."""
    try:
        if isinstance(
            expression,
            (PropertyEqualsConst, PropertyEqualsProperty, And, Or, Not),
        ):
            return pretty_condition(expression)
        return pretty(expression)
    except TypeError:
        return repr(expression)


# ---------------------------------------------------------------------------
# Condition simplification
# ---------------------------------------------------------------------------

#: Constant types whose ``==`` is sane and transitive, so two distinct
#: constants provably exclude each other. (Floats included: NaN never
#: equals anything — not even a stored NaN — so flagging it is sound.
#: A :class:`Param` stands for a literal; distinct slots hold values
#: that are not ``==``.)
_SCALAR_TYPES = (str, int, float, bool, type(None), Param)

_ATOM_TYPES = (PropertyEqualsConst, PropertyEqualsProperty)


def _connective_parts(condition: Condition, cls: type) -> Iterator[Condition]:
    """The leaves of a same-connective spine, left to right."""
    if isinstance(condition, (And, Or)) and isinstance(condition, cls):
        yield from _connective_parts(condition.left, cls)
        yield from _connective_parts(condition.right, cls)
    else:
        yield condition


def _const_conflict(
    atoms: frozenset[tuple[str, object]],
) -> Optional[tuple[str, object, object]]:
    """A ``(key, a, b)`` witness that the atom set forces one property
    to equal two provably-different constants, or ``None``."""
    by_key: dict[str, list[object]] = {}
    for key, value in sorted(atoms, key=repr):
        if not isinstance(value, _SCALAR_TYPES):
            continue
        for prior in by_key.setdefault(key, []):
            if prior != value:
                return (key, prior, value)
        by_key[key].append(value)
    return None


def _parts_conflict(parts: list[Condition]) -> bool:
    """Whether a conjunction's leaves contain contradictory
    ``x.key = const`` atoms on one variable."""
    by_var: dict[str, set[tuple[str, object]]] = {}
    for part in parts:
        if isinstance(part, PropertyEqualsConst):
            by_var.setdefault(part.variable, set()).add(
                (part.key, part.constant)
            )
    return any(
        _const_conflict(frozenset(atoms)) is not None
        for atoms in by_var.values()
    )


def simplify_condition(condition: Condition) -> "Condition | bool":
    """Simplify a condition; ``True``/``False`` mean it is a tautology
    or a contradiction under the paper's two-valued semantics.

    Applied rules: constant folding through ``And``/``Or``/``Not``,
    double-negation elimination, structural deduplication along a
    connective spine, complement-pair collapse (two-valued semantics
    make ``theta or not theta`` a genuine tautology), and
    conjunction-spine saturation of ``x.key = const`` atoms (two
    different scalar constants for one ``(variable, key)`` exclude
    every model). Atoms are never invented, so the result references a
    subset of the original variables and stays well-typed. Returns the
    *same object* when nothing changed, which callers use as the
    cheap "was anything rewritten" test.
    """
    if isinstance(condition, _ATOM_TYPES):
        return condition
    if isinstance(condition, Not):
        inner = simplify_condition(condition.inner)
        if inner is True:
            return False
        if inner is False:
            return True
        if isinstance(inner, Not):
            return inner.inner
        return condition if inner is condition.inner else Not(inner)
    if isinstance(condition, (And, Or)):
        cls = type(condition)
        is_and = cls is And
        identity, absorbing = (True, False) if is_and else (False, True)
        parts: list[Condition] = []
        changed = False
        for raw in _connective_parts(condition, cls):
            part = simplify_condition(raw)
            if part is not raw:
                changed = True
            if isinstance(part, bool):
                if part is absorbing:
                    return absorbing
                continue  # the identity contributes nothing
            # Simplification may surface nested same-connective spines
            # (e.g. NOT NOT (a AND b) under an AND): flatten them too.
            leaves = (
                _connective_parts(part, cls)
                if isinstance(part, cls)
                else (part,)
            )
            for leaf in leaves:
                if leaf in parts:
                    changed = True
                    continue
                parts.append(leaf)
        # Complement pair on one spine: `a AND NOT a` is absurd,
        # `a OR NOT a` exhausts the two-valued semantics.
        for part in parts:
            if isinstance(part, Not) and part.inner in parts:
                return absorbing
        if is_and and _parts_conflict(parts):
            return False
        if not parts:
            return identity
        if len(parts) == 1:
            return parts[0]
        if not changed:
            return condition
        rebuilt = parts[0]
        for part in parts[1:]:
            rebuilt = cls(rebuilt, part)
        return rebuilt
    raise TypeError(f"not a condition: {condition!r}")


# ---------------------------------------------------------------------------
# Pattern facts
# ---------------------------------------------------------------------------


@dataclass
class _Facts:
    """What the fold knows about every possible match of a subpattern.

    ``required`` maps each variable to ``(key, const)`` atoms every
    match's binding of that variable must satisfy; ``labels`` maps each
    variable to labels its element must carry. Both only ever speak
    about variables that are singletons *at this point of the fold* —
    repetition boundaries drop their body's variables (they rebind per
    iteration and turn into groups), extensions are opaque.
    """

    empty: bool = False
    required: dict[str, frozenset[tuple[str, object]]] = field(
        default_factory=dict
    )
    labels: dict[str, frozenset[str]] = field(default_factory=dict)


class _Stats:
    __slots__ = ("conditions_simplified", "dead_branches_pruned")

    def __init__(self) -> None:
        self.conditions_simplified = 0
        self.dead_branches_pruned = 0


def _merge_required(
    left: dict[str, frozenset[tuple[str, object]]],
    right: dict[str, frozenset[tuple[str, object]]],
) -> tuple[
    dict[str, frozenset[tuple[str, object]]],
    Optional[tuple[str, str, object, object]],
]:
    """Conjunctive merge (both parts constrain the same elements —
    shared variables are singletons, and unification forces equal
    bindings). Returns the merged map and, if saturation produced a
    contradiction, a ``(variable, key, a, b)`` witness."""
    merged = dict(left)
    witness = None
    for variable, atoms in right.items():
        combined = merged.get(variable, frozenset()) | atoms
        merged[variable] = combined
        if witness is None:
            conflict = _const_conflict(combined)
            if conflict is not None:
                witness = (variable,) + conflict
    return merged, witness


def _intersect_facts(left: _Facts, right: _Facts) -> _Facts:
    """Disjunctive merge (a union match comes from either branch): only
    facts common to both branches survive."""
    required = {}
    for variable in left.required.keys() & right.required.keys():
        common = left.required[variable] & right.required[variable]
        if common:
            required[variable] = common
    labels = {}
    for variable in left.labels.keys() & right.labels.keys():
        common_labels = left.labels[variable] & right.labels[variable]
        if common_labels:
            labels[variable] = common_labels
    return _Facts(empty=False, required=required, labels=labels)


def _merge_labels(
    left: dict[str, frozenset[str]], right: dict[str, frozenset[str]]
) -> dict[str, frozenset[str]]:
    merged = dict(left)
    for variable, labels in right.items():
        merged[variable] = merged.get(variable, frozenset()) | labels
    return merged


def _descriptor_facts(
    pattern: "ast.NodePattern | ast.EdgePattern",
) -> _Facts:
    if pattern.variable is not None and pattern.label is not None:
        return _Facts(
            labels={pattern.variable: frozenset((pattern.label,))}
        )
    return _Facts()


def _conjoin_facts(
    left: _Facts, right: _Facts, where: object, diagnostics: list[Diagnostic]
) -> _Facts:
    """Facts of a construct whose two parts constrain the same elements
    (concatenation, join, a pattern and its condition): required atoms
    saturate, and a contradiction between them — reported at ``where``
    — proves the construct empty."""
    empty = left.empty or right.empty
    required, witness = _merge_required(left.required, right.required)
    if witness is not None and not empty:
        variable, key, first, second = witness
        if isinstance(where, ast.Join):
            message = (
                f"join sides force contradictory constraints on "
                f"shared variable `{variable}`: {variable}.{key} = "
                f"{first!r} vs {variable}.{key} = {second!r}"
            )
        else:
            message = (
                f"contradictory property constraints on `{variable}`: "
                f"{variable}.{key} = {first!r} and {variable}.{key} = "
                f"{second!r} cannot both hold"
            )
        diagnostics.append(
            Diagnostic(PROVABLY_EMPTY, "warning", message, _span(where))
        )
        empty = True
    return _Facts(
        empty=empty,
        required=required,
        labels=_merge_labels(left.labels, right.labels),
    )


def _rewrite_step(
    diagnostics: list[Diagnostic],
    stats: _Stats,
    shortest_plan: Callable[[ast.Pattern], ShortestPlan],
    expression: ast.Expression,
    parts: tuple[tuple[ast.Expression, _Facts], ...],
) -> tuple[ast.Expression, _Facts]:
    """One node of the analysis (a step for ``ast.fold``): the
    answer-equivalent rewrite of ``expression`` and the facts about its
    matches, from the rewrites and facts of its sub-expressions."""
    if isinstance(expression, (ast.NodePattern, ast.EdgePattern)):
        return expression, _descriptor_facts(expression)
    # The same constructor as ``expression``, which is what is narrowed.
    rebuilt: Any = ast.with_children(expression, [part for part, _ in parts])
    facts = [fact for _, fact in parts]
    if isinstance(expression, ast.Union):
        return _rewrite_union(expression, rebuilt, facts, diagnostics, stats)
    if isinstance(expression, (ast.Concat, ast.Join)):
        left, right = facts
        return rebuilt, _conjoin_facts(left, right, expression, diagnostics)
    if isinstance(expression, ast.Conditioned):
        return _rewrite_conditioned(
            expression, rebuilt, facts[0], diagnostics, stats
        )
    if isinstance(expression, ast.Repeat):
        return _rewrite_repeat(expression, rebuilt, facts[0], diagnostics)
    if isinstance(expression, ast.PatternQuery):
        _shape_diagnostics(
            expression.restrictor, rebuilt.pattern, diagnostics, shortest_plan
        )
        return rebuilt, facts[0]
    if isinstance(expression, ast.PatternExtension):
        # Opaque but for its own verdict: what its subpatterns were
        # rewritten to matches exactly what they matched before.
        empty = expression.provably_empty_ext()
        if empty:
            diagnostics.append(
                Diagnostic(
                    PROVABLY_EMPTY,
                    "warning",
                    "extension construct is unsatisfiable "
                    "(no element can ever match it)",
                    _span(expression),
                )
            )
        return rebuilt, _Facts(empty=empty)
    raise TypeError(f"not a GPC expression: {expression!r}")


def _rewrite_union(
    pattern: ast.Union,
    rebuilt: ast.Union,
    facts: list[_Facts],
    diagnostics: list[Diagnostic],
    stats: _Stats,
) -> tuple[ast.Pattern, _Facts]:
    left_facts, right_facts = facts
    if left_facts.empty != right_facts.empty:
        dead, live, live_facts = (
            (pattern.left, rebuilt.right, right_facts)
            if left_facts.empty
            else (pattern.right, rebuilt.left, left_facts)
        )
        # A variable only the dead branch binds is ``Nothing`` in every
        # answer of the union; pruning the branch would drop it.
        if ast.variables(dead) <= ast.variables(live):
            diagnostics.append(
                Diagnostic(
                    DEAD_UNION_BRANCH,
                    "warning",
                    "union branch is provably empty and was pruned; every "
                    "answer comes from the other branch",
                    _span(dead),
                )
            )
            stats.dead_branches_pruned += 1
            return live, live_facts
    if left_facts.empty and right_facts.empty:
        return rebuilt, _Facts(empty=True)
    return rebuilt, _intersect_facts(left_facts, right_facts)


def _rewrite_conditioned(
    pattern: ast.Conditioned,
    rebuilt: ast.Conditioned,
    inner_facts: _Facts,
    diagnostics: list[Diagnostic],
    stats: _Stats,
) -> tuple[ast.Pattern, _Facts]:
    inner = rebuilt.pattern
    try:
        simplified = simplify_condition(pattern.condition)
    except TypeError:
        # An extension condition type the simplifier cannot see
        # through: keep it verbatim and learn nothing from it.
        return rebuilt, inner_facts
    if simplified is False:
        diagnostics.append(
            Diagnostic(
                ALWAYS_FALSE_CONDITION,
                "warning",
                "condition is always false; the subpattern can never "
                "match",
                _span(pattern.condition),
            )
        )
        stats.conditions_simplified += 1
        return rebuilt, _Facts(empty=True)
    if simplified is True:
        diagnostics.append(
            Diagnostic(
                TAUTOLOGY_DROPPED,
                "info",
                "condition is a tautology and was dropped",
                _span(pattern.condition),
            )
        )
        stats.conditions_simplified += 1
        return inner, inner_facts
    if simplified is not pattern.condition:
        diagnostics.append(
            Diagnostic(
                CONDITION_SIMPLIFIED,
                "info",
                f"condition simplified to "
                f"`{pretty_condition(simplified)}`",
                _span(pattern.condition),
            )
        )
        stats.conditions_simplified += 1
        rebuilt = ast.Conditioned(inner, simplified)
    spine = split_pushdown(simplified)[0]
    _pushdown_diagnostics(simplified, spine, diagnostics)
    return rebuilt, _conjoin_facts(
        inner_facts, _Facts(required=spine), simplified, diagnostics
    )


def _rewrite_repeat(
    pattern: ast.Repeat,
    rebuilt: ast.Repeat,
    body_facts: _Facts,
    diagnostics: list[Diagnostic],
) -> tuple[ast.Pattern, _Facts]:
    if body_facts.empty:
        if pattern.lower >= 1:
            return rebuilt, _Facts(empty=True)
        if pattern.upper != 0:
            diagnostics.append(
                Diagnostic(
                    REPEAT_ONLY_ZERO,
                    "info",
                    "repetition body is provably empty; only the "
                    "zero-iteration (single-node) match remains",
                    _span(pattern),
                )
            )
            return ast.Repeat(rebuilt.pattern, 0, 0), _Facts()
    # Body variables rebind per iteration (group-typed outside), so no
    # per-variable fact survives the repetition boundary.
    return rebuilt, _Facts()


# ---------------------------------------------------------------------------
# Pushdown usability diagnostics
# ---------------------------------------------------------------------------


def _pushdown_diagnostics(
    condition: Condition,
    spine: dict[str, frozenset[tuple[str, object]]],
    diagnostics: list[Diagnostic],
) -> None:
    """Explain which constant-equality atoms of ``condition`` cannot
    become bitmask probes: those under OR/NOT (``spine`` holds the ones
    :func:`~repro.gpc.planner.split_pushdown` can push)."""
    try:
        atoms = [
            atom
            for atom in iter_atoms(condition)
            if isinstance(atom, PropertyEqualsConst)
        ]
    except TypeError:  # extension condition nodes: nothing to say
        return
    seen: set[PropertyEqualsConst] = set()
    for atom in atoms:
        if atom in seen:
            continue
        seen.add(atom)
        if (atom.key, atom.constant) not in spine.get(
            atom.variable, frozenset()
        ):
            diagnostics.append(
                Diagnostic(
                    ATOM_NOT_ON_SPINE,
                    "info",
                    f"atom sits under OR/NOT, so it cannot be pushed "
                    f"to `{atom.variable}`'s bind site (it stays in "
                    f"the residual check)",
                    _span(atom),
                )
            )


# ---------------------------------------------------------------------------
# Query-shape diagnostics
# ---------------------------------------------------------------------------


def _shape_diagnostics(
    restrictor: ast.Restrictor,
    pattern: ast.Pattern,
    diagnostics: list[Diagnostic],
    shortest_plan: Callable[[ast.Pattern], ShortestPlan],
) -> None:
    plain_shortest = restrictor.shortest and restrictor.mode is None
    if plain_shortest:
        shortest = shortest_plan(pattern)
        if not shortest.start.constrains and not shortest.end.constrains:
            diagnostics.append(
                Diagnostic(
                    UNANCHORED_SHORTEST,
                    "warning",
                    "unanchored `shortest`: neither endpoint is "
                    "constrained by a label or property, so the "
                    "register search seeds from every node",
                    _span(pattern),
                )
            )
    for sub in ast.iter_subpatterns(pattern):
        if not isinstance(sub, ast.Repeat):
            continue
        if max_path_length(sub) is None:
            diagnostics.append(
                Diagnostic(
                    UNBOUNDED_REPEAT,
                    "warning" if plain_shortest else "info",
                    "unbounded repetition: under plain `shortest` the "
                    "register search finds the exact minimum, and only a "
                    "pattern that holds ArithConditioned, "
                    "RestrictedSubpattern or WitnessMarked deepens, up "
                    "to `shortest_deepening_limit`; under trail/simple "
                    "the bound is the graph size",
                    _span(sub),
                )
            )
        if iterates_edgeless_body(sub):
            diagnostics.append(
                Diagnostic(
                    EDGELESS_REPEAT_BODY,
                    "warning",
                    "repetition body may match an edgeless path — "
                    "rejected under Approach 1 (the GQL rule, "
                    "CollectMode.SYNTACTIC), never iterated edgelessly "
                    "under RUNTIME, and under GROUPING consecutive "
                    "edgeless iterations regroup into one list entry "
                    "(Figure 3)",
                    _span(sub),
                )
            )


# ---------------------------------------------------------------------------
# Query analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QueryAnalysis:
    """The static-analysis verdict for one query.

    ``simplified`` is answer-equivalent to ``query`` on every graph
    (and is ``query`` itself when nothing was rewritten).
    ``provably_empty`` guarantees the answer set is empty on every
    graph — the engine short-circuits without touching the snapshot.
    ``required`` / ``required_labels`` expose the saturated
    per-variable facts the proof used.
    """

    query: ast.Query
    simplified: ast.Query
    provably_empty: bool
    diagnostics: tuple[Diagnostic, ...]
    conditions_simplified: int
    dead_branches_pruned: int
    required: dict[str, frozenset[tuple[str, object]]]
    required_labels: dict[str, frozenset[str]]


def analyze_query(
    query: ast.Query,
    shortest_plan: Callable[[ast.Pattern], ShortestPlan] = plan_shortest,
) -> QueryAnalysis:
    """Run the full compositional analysis over a *well-typed* query.

    Callers are expected to have run
    :func:`repro.gpc.typing.infer_schema` first (the engine's
    :class:`~repro.gpc.engine.QueryPlan` does); the soundness of
    cross-part atom saturation leans on the typing guarantees (shared
    variables are singletons, conditions only mention singletons).

    Pure in the immutable AST and not memoised here: a
    :class:`~repro.gpc.engine.QueryPlan` keeps the verdict of each query
    it serves, and passes its own ``shortest_plan`` so that the
    endpoint constraints the unanchored-``shortest`` check derives are
    the ones the plan then seeds its search from.
    """
    diagnostics: list[Diagnostic] = []
    stats = _Stats()
    simplified, facts = ast.fold(
        query, partial(_rewrite_step, diagnostics, stats, shortest_plan)
    )
    if facts.empty:
        diagnostics.append(
            Diagnostic(
                PROVABLY_EMPTY,
                "warning",
                "query is provably empty on every graph; evaluation "
                "short-circuits to the empty answer set",
                _span(query),
            )
        )
    return QueryAnalysis(
        query=query,
        simplified=simplified,
        provably_empty=facts.empty,
        diagnostics=tuple(diagnostics),
        conditions_simplified=stats.conditions_simplified,
        dead_branches_pruned=stats.dead_branches_pruned,
        required=dict(facts.required),
        required_labels=dict(facts.labels),
    )


# ---------------------------------------------------------------------------
# Lint entry point (string in, diagnostics out — never raises)
# ---------------------------------------------------------------------------


def lint_query(query: "str | ast.Query") -> tuple[Diagnostic, ...]:
    """Diagnostics for a query given as text or AST.

    Unlike :func:`analyze_query` this is total: parse and type errors
    come back as ``GPC000`` / ``GPC001`` error diagnostics instead of
    exceptions, so CI lint runs can report every file.
    """
    from repro.gpc.parser import parse_query
    from repro.gpc.typing import infer_schema

    if isinstance(query, str):
        try:
            parsed: ast.Query = parse_query(query)
        except ParseError as exc:
            return (
                Diagnostic(PARSE_ERROR, "error", str(exc), query.strip()),
            )
    else:
        parsed = query
    try:
        infer_schema(parsed)
    except GPCTypeError as exc:
        return (Diagnostic(TYPE_ERROR, "error", str(exc), _span(parsed)),)
    return analyze_query(parsed).diagnostics
