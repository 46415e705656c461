"""Assignments — partial maps from variables to values (Section 5).

An assignment ``mu`` binds finitely many variables to values. Two
assignments *unify* when they agree on their shared domain; their
unification is then their (associative, commutative) merge. The empty
assignment is the unit.

Assignments are immutable and hashable so that answers ``(p, mu)`` can
live in sets, giving the calculus its set semantics for free.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import EvaluationError
from repro.gpc.types import Type
from repro.gpc.values import Nothing, NothingType, Value, conforms

__all__ = ["Assignment", "EMPTY_ASSIGNMENT", "unify_all"]


class Assignment(Mapping[str, Value]):
    """An immutable, hashable partial map from variables to values."""

    __slots__ = ("_items", "_lookup", "_hash")

    def __init__(self, bindings: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        lookup = dict(bindings)
        # Variables are distinct, so pairs never compare their values.
        items = tuple(sorted(lookup.items()))
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", hash(items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Assignment is immutable")

    def __reduce__(self):
        # The immutability guard defeats default slots pickling;
        # rebuild through __init__ (assignments travel to process-pool
        # workers inside answers).
        return (type(self), (self._lookup,))

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, variable: str) -> Value:
        return self._lookup[variable]

    def __iter__(self) -> Iterator[str]:
        return iter(self._lookup)

    def __len__(self) -> int:
        return len(self._lookup)

    def __contains__(self, variable: object) -> bool:
        return variable in self._lookup

    # -- algebra -----------------------------------------------------------

    @property
    def domain(self) -> frozenset[str]:
        """``dom(mu)``."""
        return frozenset(self._lookup)

    def bind(self, variable: str, value: Value) -> "Assignment":
        """A new assignment additionally binding ``variable``.

        Rebinding an existing variable to a *different* value is an
        error; rebinding to the same value is a no-op.
        """
        if variable in self._lookup:
            if self._lookup[variable] == value:
                return self
            raise EvaluationError(
                f"variable {variable!r} already bound to "
                f"{self._lookup[variable]!r}, cannot rebind to {value!r}"
            )
        updated = dict(self._lookup)
        updated[variable] = value
        return Assignment(updated)

    def unifies_with(self, other: "Assignment") -> bool:
        """Whether ``mu`` and ``mu'`` agree on shared variables."""
        small, large = (
            (self, other) if len(self) <= len(other) else (other, self)
        )
        for variable, value in small._items:
            if variable in large._lookup and large._lookup[variable] != value:
                return False
        return True

    def unify(self, other: "Assignment") -> "Assignment | None":
        """The unification ``mu | mu'``, or ``None`` when they clash."""
        if not self.unifies_with(other):
            return None
        if not other._lookup:
            return self
        if not self._lookup:
            return other
        merged = dict(self._lookup)
        merged.update(other._lookup)
        return Assignment(merged)

    def weak_unifies_with(self, other: "Assignment") -> bool:
        """Remark 8's weaker notion: ``Nothing`` is compatible with
        anything on either side."""
        for variable, value in self._items:
            if variable not in other._lookup:
                continue
            other_value = other._lookup[variable]
            if value == other_value:
                continue
            if isinstance(value, NothingType) or isinstance(other_value, NothingType):
                continue
            return False
        return True

    def weak_unify(self, other: "Assignment") -> "Assignment | None":
        """Unification under the Remark 8 relaxation: a non-``Nothing``
        value wins over ``Nothing``."""
        if not self.weak_unifies_with(other):
            return None
        merged = dict(self._lookup)
        for variable, value in other._items:
            current = merged.get(variable, Nothing)
            if isinstance(current, NothingType):
                merged[variable] = value
        return Assignment(merged)

    def project(self, variables: Iterable[str]) -> "Assignment":
        """Restrict to the given variables (all must be bound)."""
        return Assignment({v: self._lookup[v] for v in variables})

    def drop(self, variables: Iterable[str]) -> "Assignment":
        """Remove the given variables from the domain if present."""
        dropped = set(variables)
        return Assignment(
            {v: val for v, val in self._items if v not in dropped}
        )

    def conforms_to(self, schema: Mapping[str, Type]) -> bool:
        """Whether ``mu`` conforms to ``sigma``: equal domains, and
        ``mu(x) in V_sigma(x)`` for every ``x``."""
        if self.domain != frozenset(schema):
            return False
        return all(conforms(self._lookup[v], tau) for v, tau in schema.items())

    # -- dunders ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._items:
            return "{}"
        inner = ", ".join(f"{v} -> {val!r}" for v, val in self._items)
        return "{" + inner + "}"


#: The empty assignment (the paper's little square).
EMPTY_ASSIGNMENT = Assignment()


def unify_all(assignments: Iterable[Assignment]) -> "Assignment | None":
    """Unify a family of assignments, or ``None`` if any pair clashes.

    Pairwise unification of a family is associative (Section 5), so a
    left fold computes the same result as any other order.
    """
    result = EMPTY_ASSIGNMENT
    for assignment in assignments:
        result = result.unify(assignment)
        if result is None:
            return None
    return result
