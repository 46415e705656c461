"""Satisfaction of conditions: ``mu |= theta`` (Section 5).

The atomic cases follow the paper exactly:

- ``mu |= x.a = c`` iff ``delta(mu(x), a)`` is *defined* and equals ``c``;
- ``mu |= x.a = y.b`` iff both sides are defined and equal;
- Boolean connectives are classical, with ``not`` as complement — so
  negating a comparison over an undefined property yields *true*
  (the paper's core deliberately avoids SQL's three-valued logic).
"""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.obs.counters import active_counters
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.property_graph import PropertyGraph
from repro.gpc.assignments import Assignment
from repro.gpc.conditions_ast import (
    And,
    Condition,
    Not,
    Or,
    PropertyEqualsConst,
    PropertyEqualsProperty,
    resolve,
)

__all__ = ["satisfies"]

_ELEMENT_TYPES = (NodeId, DirectedEdgeId, UndirectedEdgeId)


def _element(assignment: Assignment, variable: str):
    try:
        value = assignment[variable]
    except KeyError:
        raise EvaluationError(
            f"condition references unbound variable {variable!r} "
            f"(the expression was not type-checked)"
        ) from None
    if not isinstance(value, _ELEMENT_TYPES):
        raise EvaluationError(
            f"condition references {variable!r} bound to non-singleton value "
            f"{value!r} (the expression was not type-checked)"
        )
    return value


def satisfies(
    graph: PropertyGraph, assignment: Assignment, condition: Condition, values: tuple = ()
) -> bool:
    """Decide ``assignment |= condition`` over ``graph``, each
    :class:`~repro.gpc.conditions_ast.Param` constant bound to its slot
    of ``values``.

    Counts one ``condition_evals`` per top-level call on the ambient
    :class:`~repro.obs.counters.EvalCounters` (connective recursion is
    internal and not double-counted).
    """
    counters = active_counters()
    if counters is not None:
        counters.condition_evals += 1
    return _satisfies(graph, assignment, condition, values)


def _satisfies(
    graph: PropertyGraph, assignment: Assignment, condition: Condition, values: tuple
) -> bool:
    if isinstance(condition, PropertyEqualsConst):
        element = _element(assignment, condition.variable)
        value = graph.get_property(element, condition.key)
        return value is not None and value == resolve(condition.constant, values)
    if isinstance(condition, PropertyEqualsProperty):
        left = _element(assignment, condition.left_variable)
        right = _element(assignment, condition.right_variable)
        left_value = graph.get_property(left, condition.left_key)
        right_value = graph.get_property(right, condition.right_key)
        return (
            left_value is not None
            and right_value is not None
            and left_value == right_value
        )
    if isinstance(condition, And):
        return _satisfies(graph, assignment, condition.left, values) and _satisfies(
            graph, assignment, condition.right, values
        )
    if isinstance(condition, Or):
        return _satisfies(graph, assignment, condition.left, values) or _satisfies(
            graph, assignment, condition.right, values
        )
    if isinstance(condition, Not):
        return not _satisfies(graph, assignment, condition.inner, values)
    raise TypeError(f"not a condition: {condition!r}")
