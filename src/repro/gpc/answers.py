"""Query answers.

An answer to an expression is a pair ``(p-bar, mu)`` of a tuple of
paths (one per joined pattern) and an assignment conforming to the
expression's schema (Section 5). :class:`Answer` is immutable and
hashable; answer sets are genuine Python (frozen)sets, which realises
the calculus' set semantics directly.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import EvaluationError
from repro.graph.paths import Path
from repro.gpc.assignments import Assignment
from repro.gpc.values import Value

__all__ = ["Answer", "project"]


class Answer:
    """One answer ``(p-bar, mu)``: immutable, its hash computed once."""

    __slots__ = ("paths", "assignment", "_hash")

    paths: tuple[Path, ...]
    assignment: Assignment

    def __init__(self, paths: tuple[Path, ...], assignment: Assignment):
        if not paths:
            raise EvaluationError("an answer must contain at least one path")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "_hash", hash((paths, assignment)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Answer is immutable")

    def __reduce__(self):
        # The immutability guard defeats default slots pickling; answers
        # travel to process-pool workers.
        return (type(self), (self.paths, self.assignment))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Answer):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.paths == other.paths
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def path(self) -> Path:
        """The single witnessing path (for non-join queries)."""
        if len(self.paths) != 1:
            raise EvaluationError(
                f"answer has {len(self.paths)} paths; use .paths for joins"
            )
        return self.paths[0]

    def __getitem__(self, variable: str) -> Value:
        return self.assignment[variable]

    def combine(self, other: "Answer") -> "Answer | None":
        """Join two answers: concatenate path tuples, unify assignments.
        ``None`` when the assignments clash."""
        merged = self.assignment.unify(other.assignment)
        if merged is None:
            return None
        return Answer(self.paths + other.paths, merged)

    def __repr__(self) -> str:
        paths = ", ".join(repr(p) for p in self.paths)
        return f"Answer(({paths}), {self.assignment!r})"


def project(
    answers: Iterable[Answer], variables: tuple[str, ...]
) -> frozenset[tuple[Value, ...]]:
    """Project answers onto a variable tuple (the GPC+ output form)."""
    return frozenset(
        tuple(answer.assignment[v] for v in variables) for answer in answers
    )

