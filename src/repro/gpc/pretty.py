"""Pretty-printer for GPC expressions.

Produces concrete syntax that :mod:`repro.gpc.parser` parses back to an
equal AST (``parse(pretty(e)) == e``), which the property-based tests
verify over randomly generated expressions.
"""

from __future__ import annotations

from repro.gpc import ast
from repro.gpc.conditions_ast import (
    And,
    Condition,
    Not,
    Or,
    Param,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)

__all__ = ["pretty", "pretty_condition", "render_step"]


def pretty(expression: ast.Expression) -> str:
    """Render a pattern or query in concrete syntax."""
    text, _level = ast.fold(expression, render_step)
    return text


# Precedence levels: query (0) < union (1) < concat (2) < postfix (3)
# < atom (4).


def _operand(rendered: tuple[str, int], level: int) -> str:
    """An operand's text, bracketed when it binds looser than the
    operator position needs."""
    text, own_level = rendered
    return f"[{text}]" if own_level < level else text


def render_step(
    expression: ast.Expression, parts: tuple[tuple[str, int], ...]
) -> tuple[str, int]:
    """``(text, precedence level)`` of ``expression`` from those of its
    sub-expressions (a step for ``ast.fold``). The sub-expressions are
    read from ``parts`` alone, so a caller may hand in a conditioning
    whose condition it has replaced (fingerprints bucket constants)."""
    if isinstance(expression, (ast.NodePattern, ast.EdgePattern)):
        return str(expression), 4  # the atoms print themselves
    if isinstance(expression, ast.Union):
        # The right operand must bind tighter: the parser builds
        # left-deep spines.
        return f"{_operand(parts[0], 1)} + {_operand(parts[1], 2)}", 1
    if isinstance(expression, ast.Concat):
        return f"{_operand(parts[0], 2)} {_operand(parts[1], 3)}", 2
    if isinstance(expression, ast.Conditioned):
        condition = pretty_condition(expression.condition)
        return f"{_operand(parts[0], 3)} << {condition} >>", 3
    if isinstance(expression, ast.Repeat):
        return f"{_operand(parts[0], 3)}{_bounds(expression)}", 3
    if isinstance(expression, ast.PatternQuery):
        name = f"{expression.name} = " if expression.name is not None else ""
        restrictor = str(expression.restrictor).upper()
        return f"{name}{restrictor} {parts[0][0]}", 0
    if isinstance(expression, ast.Join):
        return f"{parts[0][0]}, {parts[1][0]}", 0
    if isinstance(expression, ast.PatternExtension):
        # Section 7 constructs have no concrete syntax: their ``repr``
        # (sub-patterns included) stands in, and binds like an atom.
        return repr(expression), 4
    raise TypeError(f"not a pattern: {expression!r}")


def _bounds(pattern: ast.Repeat) -> str:
    if pattern.lower == 0 and pattern.upper is None:
        return "*"
    if pattern.upper is None:
        return f"{{{pattern.lower},}}"
    if pattern.lower == pattern.upper:
        return f"{{{pattern.lower}}}"
    return f"{{{pattern.lower},{pattern.upper}}}"


# -- conditions ----------------------------------------------------------------


def pretty_condition(condition: Condition) -> str:
    """Render a condition; binary connectives are fully parenthesized
    so the structure round-trips exactly."""
    if isinstance(condition, PropertyEqualsConst):
        return (
            f"{condition.variable}.{condition.key} = "
            f"{_constant(condition.constant)}"
        )
    if isinstance(condition, PropertyEqualsProperty):
        return (
            f"{condition.left_variable}.{condition.left_key} = "
            f"{condition.right_variable}.{condition.right_key}"
        )
    if isinstance(condition, And):
        return (
            f"({pretty_condition(condition.left)} AND "
            f"{pretty_condition(condition.right)})"
        )
    if isinstance(condition, Or):
        return (
            f"({pretty_condition(condition.left)} OR "
            f"{pretty_condition(condition.right)})"
        )
    if isinstance(condition, Not):
        return f"NOT ({pretty_condition(condition.inner)})"
    raise TypeError(f"not a condition: {condition!r}")


def _constant(value) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, Param):
        return f"${value.slot}"
    raise TypeError(f"cannot render constant {value!r}")
