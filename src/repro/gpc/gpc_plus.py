"""GPC+ — GPC closed under projection and top-level union (Section 6).

A GPC+ query is a set of rules::

    Ans(x1, ..., xk) :- Q1
    ...
    Ans(x1, ..., xk) :- Qn

where each ``Qi`` is a GPC query containing all head variables. Its
answer is the union over rules of the projections ``mu(x-bar)``.

This is the fragment Theorem 11 works with: it expresses UC2RPQs,
nested regular expressions, and regular queries (see
:mod:`repro.translate` for the constructive translations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GPCTypeError
from repro.graph.property_graph import PropertyGraph
from repro.gpc import ast
from repro.gpc.answers import project
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.typing import infer_schema
from repro.gpc.values import Value

__all__ = ["Rule", "GPCPlusQuery"]


@dataclass(frozen=True)
class Rule:
    """One rule ``Ans(head) :- query``."""

    head: tuple[str, ...]
    query: ast.Query

    def __post_init__(self) -> None:
        schema = infer_schema(self.query)
        for variable in self.head:
            if variable not in schema:
                raise GPCTypeError(
                    f"head variable {variable!r} does not occur in the rule body"
                )


@dataclass(frozen=True)
class GPCPlusQuery:
    """A union of projection rules with a common head arity."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise GPCTypeError("a GPC+ query needs at least one rule")
        arities = {len(rule.head) for rule in self.rules}
        if len(arities) != 1:
            raise GPCTypeError(
                f"all rules must share the head arity; found {sorted(arities)}"
            )

    @property
    def arity(self) -> int:
        return len(self.rules[0].head)

    def evaluate(
        self, graph: PropertyGraph, config: EngineConfig | None = None
    ) -> frozenset[tuple[Value, ...]]:
        """The union of the per-rule projections."""
        out: set[tuple[Value, ...]] = set()
        evaluator = Evaluator(graph, config)
        for rule in self.rules:
            answers = evaluator.evaluate(rule.query)
            out.update(project(answers, rule.head))
        return frozenset(out)
