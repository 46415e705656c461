"""Query answers.

An answer to an expression is a pair ``(p-bar, mu)`` of a tuple of
paths (one per joined pattern) and an assignment conforming to the
expression's schema (Section 5). :class:`Answer` is immutable and
hashable; answer sets are genuine Python (frozen)sets, which realises
the calculus' set semantics directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from repro.errors import EvaluationError
from repro.graph.paths import Path
from repro.gpc.assignments import Assignment
from repro.gpc.values import Value

__all__ = ["Answer", "project", "sort_answers"]

_FIRST = itemgetter(0)


@dataclass(frozen=True)
class Answer:
    """One answer ``(p-bar, mu)``."""

    paths: tuple[Path, ...]
    assignment: Assignment

    def __post_init__(self) -> None:
        if not self.paths:
            raise EvaluationError("an answer must contain at least one path")

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


def _paths_key(answer: Answer) -> tuple:
    return tuple(
        [
            (len(path.elements), tuple([repr(e) for e in path.elements]))
            for path in answer.paths
        ]
    )


def sort_answers(answers: Iterable[Answer]) -> list[Answer]:
    """Deterministic order for tests, reports and the wire: radix order
    on the path tuple, then on the assignment's repr.

    The assignment's repr is only taken where it decides — between
    answers that share their whole path tuple — which is rare, and
    otherwise half the cost of the sort.
    """
    keyed = sorted([(_paths_key(a), a) for a in answers], key=_FIRST)
    ordered: list[Answer] = []
    for _, run in groupby(keyed, key=_FIRST):
        tied = [a for _, a in run]
        if len(tied) > 1:
            tied.sort(key=lambda a: repr(a.assignment))
        ordered.extend(tied)
    return ordered
