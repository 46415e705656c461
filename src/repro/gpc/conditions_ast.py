"""Condition syntax (the ``theta`` production of Figure 1).

Atomic conditions compare a property of a singleton variable with a
constant (``x.a = c``) or with another property (``x.a = y.b``);
conditions are closed under ``and``, ``or`` and ``not``. A constant may
be a :class:`Param`, slot ``i`` of a query shape's parameter vector
(:func:`repro.gpc.parser.query_shape`): where it meets data it reads
as ``values[i]`` (:func:`resolve`).

The classes here are pure syntax. Typing lives in
:mod:`repro.gpc.typing`; satisfaction (``mu |= theta``) lives in
:mod:`repro.gpc.conditions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Union as TUnion

__all__ = [
    "Condition",
    "PropertyEqualsConst",
    "PropertyEqualsProperty",
    "And",
    "Or",
    "Not",
    "Param",
    "resolve",
    "condition_variables",
    "iter_atoms",
]


@dataclass(frozen=True)
class Param:
    """The constant in slot ``slot`` of a binding. Two params are equal
    iff their slots are, which is what their values are to each other."""

    slot: int


def resolve(constant: Hashable, values: tuple) -> Hashable:
    """``constant``, or the value a :class:`Param` is bound to."""
    return values[constant.slot] if type(constant) is Param else constant


@dataclass(frozen=True)
class PropertyEqualsConst:
    """``x.key = constant``."""

    variable: str
    key: str
    constant: Hashable

    def __str__(self) -> str:
        return f"{self.variable}.{self.key} = {self.constant!r}"


@dataclass(frozen=True)
class PropertyEqualsProperty:
    """``x.key = y.key2``."""

    left_variable: str
    left_key: str
    right_variable: str
    right_key: str

    def __str__(self) -> str:
        return (
            f"{self.left_variable}.{self.left_key} = "
            f"{self.right_variable}.{self.right_key}"
        )


@dataclass(frozen=True)
class And:
    """Conjunction ``theta1 and theta2``."""

    left: "Condition"
    right: "Condition"

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or:
    """Disjunction ``theta1 or theta2``."""

    left: "Condition"
    right: "Condition"

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not:
    """Negation ``not theta``.

    Note the paper's semantics: ``mu |= not theta`` iff ``mu |/= theta``,
    so negating a comparison over an *undefined* property yields true.
    """

    inner: "Condition"

    def __str__(self) -> str:
        return f"(NOT {self.inner})"


Condition = TUnion[PropertyEqualsConst, PropertyEqualsProperty, And, Or, Not]


def condition_variables(condition: Condition) -> frozenset[str]:
    """All variables mentioned in ``condition``."""
    out: set[str] = set()
    for atom in iter_atoms(condition):
        if isinstance(atom, PropertyEqualsConst):
            out.add(atom.variable)
        else:
            out.add(atom.left_variable)
            out.add(atom.right_variable)
    return frozenset(out)


def iter_atoms(
    condition: Condition,
) -> Iterator[TUnion[PropertyEqualsConst, PropertyEqualsProperty]]:
    """Iterate over the atomic comparisons of ``condition``."""
    stack: list[Condition] = [condition]
    while stack:
        current = stack.pop()
        if isinstance(current, (PropertyEqualsConst, PropertyEqualsProperty)):
            yield current
        elif isinstance(current, (And, Or)):
            stack.append(current.left)
            stack.append(current.right)
        elif isinstance(current, Not):
            stack.append(current.inner)
        else:
            raise TypeError(f"not a condition: {current!r}")
