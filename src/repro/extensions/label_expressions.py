"""Label expressions (a Section 7 extension).

GQL offers complex label expressions in descriptors; the paper lists
them as a natural GPC extension. Here node and edge patterns may carry
a Boolean combination of labels:

- ``LabelAtom("A")`` — the element has label ``A``;
- ``LabelAnd`` / ``LabelOr`` / ``LabelNot`` — Boolean combinations;
- ``LabelWildcard()`` — any element (even label-less).

An expression is a test on one element's label set (calling it with the
set runs :func:`satisfies_label_expr`). :class:`NodeWithLabelExpr` and
:class:`EdgeWithLabelExpr` mirror the core atomic patterns through the
extension protocol; in the register NFA each is a node test or a step
whose label test is the expression, so the register route serves them
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union as TUnion

from repro.direction import Direction
from repro.gpc import ast
from repro.gpc.assignments import EMPTY_ASSIGNMENT, Assignment
from repro.gpc.types import EDGE, NODE
from repro.graph.paths import Path

__all__ = [
    "LabelAtom",
    "LabelAnd",
    "LabelOr",
    "LabelNot",
    "LabelWildcard",
    "LabelExpr",
    "satisfies_label_expr",
    "label_expr_satisfiable",
    "NodeWithLabelExpr",
    "EdgeWithLabelExpr",
]


class _LabelTest:
    def __call__(self, labels: frozenset[str]) -> bool:
        """Whether an element with ``labels`` satisfies the expression."""
        return satisfies_label_expr(labels, self)


@dataclass(frozen=True)
class LabelAtom(_LabelTest):
    label: str


@dataclass(frozen=True)
class LabelAnd(_LabelTest):
    left: "LabelExpr"
    right: "LabelExpr"


@dataclass(frozen=True)
class LabelOr(_LabelTest):
    left: "LabelExpr"
    right: "LabelExpr"


@dataclass(frozen=True)
class LabelNot(_LabelTest):
    inner: "LabelExpr"


@dataclass(frozen=True)
class LabelWildcard(_LabelTest):
    pass


LabelExpr = TUnion[LabelAtom, LabelAnd, LabelOr, LabelNot, LabelWildcard]


def label_expr_satisfiable(expression: LabelExpr, atom_cap: int = 12) -> bool:
    """Whether *some* label set satisfies the expression.

    Label expressions only mention finitely many atoms, so this is a
    small boolean SAT check: enumerate assignments over the distinct
    atoms (an element can carry any subset of labels — the atoms are
    independent). Expressions with more than ``atom_cap`` atoms are
    conservatively reported satisfiable; the static analyzer only acts
    on a provably-``False`` verdict, so the cap never costs soundness.
    """
    atoms = sorted(_label_atoms(expression))
    if len(atoms) > atom_cap:
        return True
    for bits in range(1 << len(atoms)):
        labels = frozenset(
            atom for index, atom in enumerate(atoms) if bits >> index & 1
        )
        if satisfies_label_expr(labels, expression):
            return True
    return False


def _label_atoms(expression: LabelExpr) -> set[str]:
    if isinstance(expression, LabelAtom):
        return {expression.label}
    if isinstance(expression, (LabelAnd, LabelOr)):
        return _label_atoms(expression.left) | _label_atoms(expression.right)
    if isinstance(expression, LabelNot):
        return _label_atoms(expression.inner)
    return set()


def satisfies_label_expr(labels: frozenset[str], expression: LabelExpr) -> bool:
    """Whether a label set satisfies the expression."""
    if isinstance(expression, LabelAtom):
        return expression.label in labels
    if isinstance(expression, LabelAnd):
        return satisfies_label_expr(labels, expression.left) and satisfies_label_expr(
            labels, expression.right
        )
    if isinstance(expression, LabelOr):
        return satisfies_label_expr(labels, expression.left) or satisfies_label_expr(
            labels, expression.right
        )
    if isinstance(expression, LabelNot):
        return not satisfies_label_expr(labels, expression.inner)
    if isinstance(expression, LabelWildcard):
        return True
    raise TypeError(f"not a label expression: {expression!r}")


@dataclass(frozen=True)
class NodeWithLabelExpr(ast.PatternExtension):
    """``(x : <label expression>)``."""

    expression: LabelExpr
    variable: Optional[str] = None

    def children(self) -> tuple[ast.Pattern, ...]:
        return ()

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.variable} if self.variable else ())

    def infer_schema_ext(self, child_schemas: list[dict]) -> dict:
        return {self.variable: NODE} if self.variable else {}

    def min_path_length_ext(self, child_mins: list[int]) -> int:
        return 0

    def max_path_length_ext(self, child_maxes) -> Optional[int]:
        return 0

    def provably_empty_ext(self) -> bool:
        return not label_expr_satisfiable(self.expression)

    def evaluate_ext(self, evaluator, max_length: int):
        graph = evaluator.graph
        for node in graph.nodes:
            if satisfies_label_expr(graph.labels(node), self.expression):
                mu = (
                    Assignment({self.variable: node})
                    if self.variable
                    else EMPTY_ASSIGNMENT
                )
                yield (Path.node(node), mu)

    def compile_register_ext(self, builder, compile_child):
        return builder.node(self.variable, self.expression)


@dataclass(frozen=True)
class EdgeWithLabelExpr(ast.PatternExtension):
    """An edge pattern whose label is a Boolean label expression."""

    direction: Direction
    expression: LabelExpr
    variable: Optional[str] = None

    def children(self) -> tuple[ast.Pattern, ...]:
        return ()

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.variable} if self.variable else ())

    def infer_schema_ext(self, child_schemas: list[dict]) -> dict:
        return {self.variable: EDGE} if self.variable else {}

    def min_path_length_ext(self, child_mins: list[int]) -> int:
        return 1

    def max_path_length_ext(self, child_maxes) -> Optional[int]:
        return 1

    def provably_empty_ext(self) -> bool:
        return not label_expr_satisfiable(self.expression)

    def evaluate_ext(self, evaluator, max_length: int):
        if max_length < 1:
            return
        graph = evaluator.graph

        def mu(edge):
            return (
                Assignment({self.variable: edge})
                if self.variable
                else EMPTY_ASSIGNMENT
            )

        if self.direction in (Direction.FORWARD, Direction.BACKWARD):
            for edge in graph.directed_edges:
                if not satisfies_label_expr(graph.labels(edge), self.expression):
                    continue
                source, target = graph.source(edge), graph.target(edge)
                if self.direction is Direction.FORWARD:
                    yield (Path.of(source, edge, target), mu(edge))
                else:
                    yield (Path.of(target, edge, source), mu(edge))
        else:
            for edge in graph.undirected_edges:
                if not satisfies_label_expr(graph.labels(edge), self.expression):
                    continue
                ends = sorted(graph.endpoints(edge))
                if len(ends) == 1:
                    yield (Path.of(ends[0], edge, ends[0]), mu(edge))
                else:
                    yield (Path.of(ends[0], edge, ends[1]), mu(edge))
                    yield (Path.of(ends[1], edge, ends[0]), mu(edge))

    def compile_register_ext(self, builder, compile_child):
        return builder.edge(self.direction, self.expression, self.variable)
