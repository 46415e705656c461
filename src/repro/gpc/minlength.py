"""Syntactic path-length analysis (Approach 1 of Section 5).

The GQL standard forbids ``pi{n..m}`` whenever ``pi`` may match an
edgeless path; equivalently, the *minimum path length* of every
repetition body must be positive. This module computes minimum (and
maximum) match lengths syntactically and implements the Approach 1
validation.

The analysis is exact:

- a node pattern matches only length-0 paths;
- an edge pattern matches only length-1 paths;
- union takes min/max, concatenation adds, conditioning is neutral
  (conditions can only remove matches, never shorten them);
- ``pi{n..m}`` has minimum ``n * min(pi)`` and maximum ``m * max(pi)``
  (``0`` when ``n = 0``, unbounded when ``m`` is infinite and
  ``max(pi) > 0``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CollectError
from repro.gpc import ast

__all__ = [
    "min_path_length",
    "max_path_length",
    "may_match_edgeless",
    "iterates_edgeless_body",
    "validate_approach1",
]


def min_length_step(pattern: ast.Pattern, child_mins: tuple[int, ...]) -> int:
    """One node of :func:`min_path_length` (a step for ``ast.fold``)."""
    if isinstance(pattern, ast.NodePattern):
        return 0
    if isinstance(pattern, ast.EdgePattern):
        return 1
    if isinstance(pattern, ast.Union):
        return min(child_mins)
    if isinstance(pattern, ast.Concat):
        return child_mins[0] + child_mins[1]
    if isinstance(pattern, ast.Conditioned):
        return child_mins[0]
    if isinstance(pattern, ast.Repeat):
        return pattern.lower * child_mins[0]
    if isinstance(pattern, ast.PatternExtension):
        return pattern.min_path_length_ext(child_mins)
    raise TypeError(f"not a pattern: {pattern!r}")


def min_path_length(pattern: ast.Pattern) -> int:
    """The length of the shortest path the pattern could ever match."""
    return ast.fold(pattern, min_length_step)


def max_length_step(
    pattern: ast.Pattern, child_maxes: tuple[Optional[int], ...]
) -> Optional[int]:
    """One node of :func:`max_path_length` (a step for ``ast.fold``)."""
    if isinstance(pattern, ast.NodePattern):
        return 0
    if isinstance(pattern, ast.EdgePattern):
        return 1
    if isinstance(pattern, (ast.Union, ast.Concat)):
        left, right = child_maxes
        if left is None or right is None:
            return None
        return max(left, right) if isinstance(pattern, ast.Union) else left + right
    if isinstance(pattern, ast.Conditioned):
        return child_maxes[0]
    if isinstance(pattern, ast.Repeat):
        inner = child_maxes[0]
        if inner == 0:
            return 0
        if pattern.upper is None or inner is None:
            return None
        return pattern.upper * inner
    if isinstance(pattern, ast.PatternExtension):
        return pattern.max_path_length_ext(child_maxes)
    raise TypeError(f"not a pattern: {pattern!r}")


def max_path_length(pattern: ast.Pattern) -> Optional[int]:
    """The length of the longest path the pattern could match, or
    ``None`` when unbounded."""
    return ast.fold(pattern, max_length_step)


def may_match_edgeless(pattern: ast.Pattern) -> bool:
    """Whether the pattern may match a length-0 path."""
    return min_path_length(pattern) == 0


def iterates_edgeless_body(repeat: ast.Repeat) -> bool:
    """Whether the repetition can iterate over an edgeless body: its
    body may match a length-0 path and it is not ``pi{0,0}``, which
    never iterates. This is what a register run cannot regroup
    (:func:`repro.gpc.register_nfa.collect_requirement`) and what lint
    ``GPC022`` reports."""
    return repeat.upper != 0 and may_match_edgeless(repeat.pattern)


def validate_approach1(pattern: ast.Pattern) -> None:
    """Enforce the Approach 1 syntactic restriction.

    Raises :class:`~repro.errors.CollectError` if any repetition body
    may match an edgeless path (this is the GQL standard's rule; it is
    syntactic, so — unlike :func:`iterates_edgeless_body` — ``pi{0,0}``
    is not exempt).
    """
    for sub in ast.iter_subpatterns(pattern):
        if isinstance(sub, ast.Repeat) and may_match_edgeless(sub.pattern):
            raise CollectError(
                f"repetition body may match an edgeless path, which "
                f"Approach 1 (the GQL rule) forbids: {sub.pattern!r}"
            )
