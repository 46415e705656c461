"""Arithmetic conditions — the Section 7 aggregation extension.

Terms are built from property values ``y.k``, the group-count
aggregate ``#(x)`` (the number of bindings collected for a group
variable), integer constants, addition and multiplication. An
*arithmetic condition* equates two terms; Proposition 14 shows that
adding such conditions makes (data) complexity undecidable, via the
Diophantine gadget of :mod:`repro.extensions.diophantine`.

:class:`ArithConditioned` is a :class:`~repro.gpc.ast.PatternExtension`
filtering a pattern's matches by an arithmetic equation, mirroring the
core ``Conditioned`` construct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union as TUnion

from repro.errors import GPCTypeError
from repro.gpc import ast
from repro.gpc.assignments import Assignment
from repro.gpc.values import GroupValue
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.property_graph import PropertyGraph
from repro.gpc.types import GroupType, is_singleton

__all__ = [
    "TermConst",
    "PropertyTerm",
    "Count",
    "TermSum",
    "TermProduct",
    "Term",
    "ArithConditioned",
    "evaluate_term",
    "term_variables",
]


@dataclass(frozen=True)
class TermConst:
    """An integer constant."""

    value: int


@dataclass(frozen=True)
class PropertyTerm:
    """``y.k`` — a numeric property of a singleton variable."""

    variable: str
    key: str


@dataclass(frozen=True)
class Count:
    """``#(x)`` — the number of bindings of a group variable."""

    variable: str


@dataclass(frozen=True)
class TermSum:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class TermProduct:
    left: "Term"
    right: "Term"


Term = TUnion[TermConst, PropertyTerm, Count, TermSum, TermProduct]


def term_variables(term: Term) -> frozenset[str]:
    if isinstance(term, TermConst):
        return frozenset()
    if isinstance(term, (PropertyTerm, Count)):
        return frozenset({term.variable})
    return term_variables(term.left) | term_variables(term.right)


def evaluate_term(
    term: Term, graph: PropertyGraph, assignment: Assignment
) -> Optional[int]:
    """Evaluate a term; ``None`` when undefined (missing property,
    non-numeric value). Undefined operands make comparisons false,
    matching the paper's treatment of missing properties."""
    if isinstance(term, TermConst):
        return term.value
    if isinstance(term, PropertyTerm):
        value = assignment.get(term.variable)
        if not isinstance(value, (NodeId, DirectedEdgeId, UndirectedEdgeId)):
            return None
        raw = graph.get_property(value, term.key)
        if isinstance(raw, bool) or not isinstance(raw, int):
            return None
        return raw
    if isinstance(term, Count):
        value = assignment.get(term.variable)
        if not isinstance(value, GroupValue):
            return None
        return len(value)
    if isinstance(term, (TermSum, TermProduct)):
        left = evaluate_term(term.left, graph, assignment)
        right = evaluate_term(term.right, graph, assignment)
        if left is None or right is None:
            return None
        return left + right if isinstance(term, TermSum) else left * right
    raise TypeError(f"not a term: {term!r}")


@dataclass(frozen=True)
class ArithConditioned(ast.PatternExtension):
    """``pi << t1 = t2 >>`` with arithmetic terms (Section 7)."""

    pattern: ast.Pattern
    left: Term
    right: Term

    # -- PatternExtension hooks ------------------------------------------

    def children(self) -> tuple[ast.Pattern, ...]:
        return (self.pattern,)

    def with_children(self, children) -> "ArithConditioned":
        return replace(self, pattern=children[0])

    def infer_schema_ext(self, child_schemas: list[dict]) -> dict:
        (schema,) = child_schemas
        for term in (self.left, self.right):
            self._check_term(term, schema)
        return schema

    def _check_term(self, term: Term, schema: dict) -> None:
        for variable in term_variables(term):
            if variable not in schema:
                raise GPCTypeError(
                    f"arithmetic condition mentions unbound variable "
                    f"{variable!r}"
                )
        self._check_term_shapes(term, schema)

    def _check_term_shapes(self, term: Term, schema: dict) -> None:
        if isinstance(term, PropertyTerm):
            if not is_singleton(schema[term.variable]):
                raise GPCTypeError(
                    f"property term {term.variable}.{term.key} needs a "
                    f"singleton variable, got {schema[term.variable]}"
                )
        elif isinstance(term, Count):
            if not isinstance(schema[term.variable], GroupType):
                raise GPCTypeError(
                    f"#({term.variable}) needs a group variable, got "
                    f"{schema[term.variable]}"
                )
        elif isinstance(term, (TermSum, TermProduct)):
            self._check_term_shapes(term.left, schema)
            self._check_term_shapes(term.right, schema)

    def min_path_length_ext(self, child_mins: list[int]) -> int:
        return child_mins[0]

    def max_path_length_ext(self, child_maxes: list[Optional[int]]) -> Optional[int]:
        return child_maxes[0]

    def evaluate_ext(self, evaluator, max_length: int):
        graph = evaluator.graph
        for path, mu in evaluator.evaluate(self.pattern, max_length):
            left = evaluate_term(self.left, graph, mu)
            right = evaluate_term(self.right, graph, mu)
            if left is not None and left == right:
                yield (path, mu)
