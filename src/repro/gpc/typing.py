"""Schema inference — the Figure 2 typing rules.

The central entry point is :func:`infer_schema`, which maps a GPC
expression to its schema ``sch(xi)`` (Definition 5): the finite partial
function from variables to types induced by the typing rules. A
well-typed expression assigns a *unique* type to every variable
(Proposition 2); ill-typed expressions raise a
:class:`~repro.errors.GPCTypeError` subclass pinpointing the violation.

As Remark 6 observes, ``sch`` is compositional: each syntactic
construct combines the schemas of its sub-expressions through a pure
function. Those combinators (:func:`union_schemas`,
:func:`concat_schemas`, :func:`repeat_schema`, ...) are exposed so the
property-based tests can verify compositionality directly.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import (
    GPCTypeError,
    IllegalJoinError,
    TypeMismatchError,
    UnboundVariableError,
)
from repro.gpc import ast
from repro.gpc.conditions_ast import Condition, condition_variables
from repro.gpc.types import (
    EDGE,
    GroupType,
    MaybeType,
    NODE,
    PATH,
    Type,
    is_singleton,
    maybe_wrap,
)

__all__ = [
    "Schema",
    "infer_schema",
    "is_well_typed",
    "check_condition",
    "union_schemas",
    "concat_schemas",
    "join_schemas",
    "repeat_schema",
    "name_schema",
]

#: A schema is a finite partial map from variables to types.
Schema = Mapping[str, Type]


# ---------------------------------------------------------------------------
# Schema combinators (Remark 6)
# ---------------------------------------------------------------------------


def union_schemas(left: Schema, right: Schema) -> dict[str, Type]:
    """Combine schemas under union ``p1 + p2``.

    For each variable ``z``:

    - present in both with the same type ``tau`` -> ``tau``;
    - ``tau`` on one side and ``Maybe(tau)`` on the other -> ``Maybe(tau)``;
    - present on one side only with ``tau`` -> ``tau?``;
    - anything else is a type mismatch.
    """
    result: dict[str, Type] = {}
    for variable in left.keys() | right.keys():
        in_left = variable in left
        in_right = variable in right
        if in_left and in_right:
            lt, rt = left[variable], right[variable]
            if lt == rt:
                result[variable] = lt
            elif lt == maybe_wrap(rt) and isinstance(lt, MaybeType):
                result[variable] = lt
            elif rt == maybe_wrap(lt) and isinstance(rt, MaybeType):
                result[variable] = rt
            else:
                raise TypeMismatchError(
                    f"variable {variable!r} has type {lt} on one side of a union "
                    f"and {rt} on the other"
                )
        else:
            tau = left[variable] if in_left else right[variable]
            result[variable] = maybe_wrap(tau)
    return result


def concat_schemas(left: Schema, right: Schema) -> dict[str, Type]:
    """Combine schemas under concatenation ``p1 p2``.

    Shared variables must be singletons (``Node`` or ``Edge``) of the
    same type; this is what disallows implicit joins over group,
    conditional, and path variables.
    """
    return _merge_singleton_join(left, right, context="concatenation")


def join_schemas(left: Schema, right: Schema) -> dict[str, Type]:
    """Combine schemas under query join ``Q1, Q2`` (same discipline as
    concatenation)."""
    return _merge_singleton_join(left, right, context="join")


def _merge_singleton_join(
    left: Schema, right: Schema, context: str
) -> dict[str, Type]:
    result: dict[str, Type] = {}
    for variable in left.keys() | right.keys():
        in_left = variable in left
        in_right = variable in right
        if in_left and in_right:
            lt, rt = left[variable], right[variable]
            if lt != rt:
                raise TypeMismatchError(
                    f"variable {variable!r} has type {lt} and {rt} "
                    f"across a {context}"
                )
            if not is_singleton(lt):
                raise IllegalJoinError(
                    f"variable {variable!r} of type {lt} is shared across a "
                    f"{context}; only Node/Edge variables may be shared"
                )
            result[variable] = lt
        else:
            result[variable] = left[variable] if in_left else right[variable]
    return result


def repeat_schema(inner: Schema) -> dict[str, Type]:
    """Schema under repetition: every ``tau`` becomes ``Group(tau)``."""
    return {variable: GroupType(tau) for variable, tau in inner.items()}


def name_schema(inner: Schema, name: str) -> dict[str, Type]:
    """Schema of ``x = r p``: the pattern's schema plus ``x : Path``.

    The premise ``x not in var(p)`` of the Figure 2 rule is enforced.
    """
    if name in inner:
        raise TypeMismatchError(
            f"path name {name!r} already occurs in the pattern with type "
            f"{inner[name]}"
        )
    result = dict(inner)
    result[name] = PATH
    return result


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------


def check_condition(schema: Schema, condition: Condition) -> None:
    """Type-check a condition against a pattern schema.

    Implements the two atomic rules of Figure 2: every variable used in
    a comparison must have a *singleton* type in the schema. Boolean
    connectives propagate. Raises on violation; returns ``None`` (the
    condition then "has type Bool").
    """
    for variable in condition_variables(condition):
        if variable not in schema:
            raise UnboundVariableError(
                f"condition mentions {variable!r}, which is not bound in the "
                f"conditioned pattern"
            )
        tau = schema[variable]
        if not is_singleton(tau):
            raise GPCTypeError(
                f"condition mentions {variable!r} of type {tau}; only "
                f"Node/Edge variables may appear in conditions"
            )


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _schema_step(
    expression: ast.Expression, child_schemas: tuple[dict[str, Type], ...]
) -> dict[str, Type]:
    """One Figure 2 rule: the schema of ``expression`` from its
    sub-expressions' schemas."""
    if isinstance(expression, ast.NodePattern):
        if expression.variable is None:
            return {}
        return {expression.variable: NODE}
    if isinstance(expression, ast.EdgePattern):
        if expression.variable is None:
            return {}
        return {expression.variable: EDGE}
    if isinstance(expression, ast.Union):
        return union_schemas(*child_schemas)
    if isinstance(expression, ast.Concat):
        return concat_schemas(*child_schemas)
    if isinstance(expression, ast.Conditioned):
        check_condition(child_schemas[0], expression.condition)
        return child_schemas[0]
    if isinstance(expression, ast.Repeat):
        return repeat_schema(child_schemas[0])
    if isinstance(expression, ast.PatternQuery):
        if expression.name is not None:
            return name_schema(child_schemas[0], expression.name)
        return child_schemas[0]
    if isinstance(expression, ast.Join):
        return join_schemas(*child_schemas)
    if isinstance(expression, ast.PatternExtension):
        return expression.infer_schema_ext(child_schemas)
    raise TypeError(f"not a GPC expression: {expression!r}")


def infer_schema(expression: ast.Expression) -> dict[str, Type]:
    """Compute ``sch(xi)`` for a pattern or query.

    Raises a :class:`~repro.errors.GPCTypeError` subclass if the
    expression is not well-typed.
    """
    return ast.fold(expression, _schema_step)


def is_well_typed(expression: ast.Expression) -> bool:
    """Whether the expression satisfies Definition 1."""
    try:
        infer_schema(expression)
    except GPCTypeError:
        return False
    return True
