"""Query introspection: schemas, length analysis, and plan summaries.

``explain`` renders what the engine knows about an expression before
touching a graph: the inferred schema (Figure 2), the min/max match
lengths (the Approach 1 analysis), which collect approach would accept
it, and — for queries — the length bound each restrictor implies.

Useful in examples and when debugging why a pattern is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import CollectError, GPCTypeError
from repro.gpc import ast
from repro.gpc.engine import DEFAULT_CONFIG, PatternPlan
from repro.gpc.minlength import (
    max_path_length,
    min_path_length,
    validate_approach1,
)
from repro.gpc.planner import describe_route
from repro.gpc.pretty import pretty
from repro.gpc.typing import infer_schema
from repro.gpc.types import Type

__all__ = [
    "PatternReport",
    "QueryReport",
    "explain_pattern",
    "explain_query",
    "explain",
    "explain_counters",
    "explain_estimates",
]


@dataclass(frozen=True)
class PatternReport:
    """Static analysis of a pattern."""

    text: str
    well_typed: bool
    type_error: Optional[str]
    schema: dict[str, Type]
    min_length: int
    max_length: Optional[int]
    gql_repetition_legal: bool
    size: int

    def render(self) -> str:
        lines = [f"pattern: {self.text}"]
        if not self.well_typed:
            lines.append(f"  ILL-TYPED: {self.type_error}")
            return "\n".join(lines)
        if self.schema:
            lines.append("  schema:")
            for variable in sorted(self.schema):
                lines.append(f"    {variable} : {self.schema[variable]}")
        else:
            lines.append("  schema: (no variables)")
        max_text = "unbounded" if self.max_length is None else str(self.max_length)
        lines.append(f"  match length: {self.min_length} .. {max_text}")
        lines.append(f"  pattern size |pi|: {self.size}")
        lines.append(
            f"  GQL repetition rule (Approach 1): "
            f"{'ok' if self.gql_repetition_legal else 'VIOLATED'}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class QueryReport:
    """Static analysis of a query: per-item pattern reports plus the
    restrictor-implied evaluation strategy."""

    text: str
    items: tuple[tuple[str, PatternReport], ...]

    def render(self) -> str:
        lines = [f"query: {self.text}"]
        for strategy, report in self.items:
            lines.append(f"- restrictor strategy: {strategy}")
            lines.extend("  " + line for line in report.render().splitlines())
        return "\n".join(lines)


def explain_pattern(pattern: ast.Pattern) -> PatternReport:
    """Analyse a pattern without evaluating it."""
    schema: dict[str, Type] = {}
    error: Optional[str] = None
    try:
        schema = infer_schema(pattern)
    except GPCTypeError as exc:
        error = str(exc)
    legal = True
    try:
        validate_approach1(pattern)
    except CollectError:
        legal = False
    return PatternReport(
        text=pretty(pattern),
        well_typed=error is None,
        type_error=error,
        schema=schema,
        min_length=min_path_length(pattern),
        max_length=max_path_length(pattern),
        gql_repetition_legal=legal,
        size=ast.pattern_size(pattern),
    )


def _strategy(restrictor: ast.Restrictor, pattern: ast.Pattern) -> str:
    route, _nfa, why = PatternPlan(pattern, DEFAULT_CONFIG).route
    return describe_route(restrictor, route, why)


def explain_query(query: ast.Query) -> QueryReport:
    """Analyse a query: one entry per joined pattern item."""
    items = tuple(
        (_strategy(q.restrictor, q.pattern), explain_pattern(q.pattern))
        for q in ast.iter_queries(query)
        if isinstance(q, ast.PatternQuery)
    )
    return QueryReport(text=pretty(query), items=items)


def explain(expression: ast.Expression) -> str:
    """Render a human-readable report for a pattern or query."""
    if isinstance(expression, (ast.PatternQuery, ast.Join)):
        return explain_query(expression).render()
    return explain_pattern(expression).render()


def explain_counters(
    counters,
    *,
    answers: Optional[int] = None,
    elapsed_s: Optional[float] = None,
) -> str:
    """Render observed execution statistics as an ``explain`` section.

    The static report above describes what the engine *plans* to do;
    this appendix — fed by :class:`~repro.obs.counters.EvalCounters`
    from an actual run — describes what it *did*, letting planner
    estimates be validated against observed work.
    """
    lines = ["observed execution:"]
    if answers is not None:
        lines.append(f"  answers: {answers}")
    if elapsed_s is not None:
        lines.append(f"  elapsed: {elapsed_s * 1000:.2f} ms")
    for name, value in counters.as_dict().items():
        lines.append(f"  {name}: {value}")
    return "\n".join(lines)


def _estimate_row(label: str, estimated: float, observed: float) -> str:
    est = max(float(estimated), 1.0)
    obs = max(float(observed), 1.0)
    if est >= obs:
        verdict = f"{est / obs:.1f}x over"
    else:
        verdict = f"{obs / est:.1f}x under"
    return f"  {label}: est {estimated:.0f} vs actual {observed:.0f} ({verdict})"


def explain_estimates(
    estimates,
    *,
    answers: Optional[int] = None,
    counters=None,
) -> str:
    """Render the planner's estimates against observed actuals.

    ``estimates`` is a :class:`~repro.gpc.planner.PlanEstimates`
    stamped at plan time; ``answers`` and ``counters`` (an
    :class:`~repro.obs.counters.EvalCounters`) come from the run being
    explained. Each row shows the symmetric over/under factor so
    misestimates read the same in both directions.
    """
    lines = ["estimated vs actual:"]
    if answers is not None:
        lines.append(_estimate_row("answers", estimates.cardinality, answers))
    else:
        lines.append(f"  answers: est {estimates.cardinality:.0f}")
    if estimates.joins:
        build = getattr(counters, "join_build_rows", 0) if counters else 0
        probe = getattr(counters, "join_probe_rows", 0) if counters else 0
        lines.append(
            _estimate_row("join build rows", estimates.join_build_rows, build)
        )
        lines.append(
            _estimate_row("join probe rows", estimates.join_probe_rows, probe)
        )
    if counters is not None:
        lines.append(
            f"  nfa states expanded: {counters.nfa_states_expanded} (observed)"
        )
    return "\n".join(lines)
