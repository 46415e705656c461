"""The GPC type system's types (Section 4).

The grammar of types is::

    tau ::= Node | Edge | Path | Maybe(tau) | Group(tau)

Conditions are checked, not typed: a well-typed condition has no type
of its own. Types are immutable and hashable. :func:`maybe_wrap`
implements the paper's ``tau?`` operation, which never produces
``Maybe(Maybe(tau))`` (cf. Proposition 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union as TUnion

__all__ = [
    "NodeType",
    "EdgeType",
    "PathType",
    "MaybeType",
    "GroupType",
    "Type",
    "NODE",
    "EDGE",
    "PATH",
    "maybe_wrap",
    "is_singleton",
    "type_depth",
]


@dataclass(frozen=True)
class NodeType:
    """The type of variables bound to a single node."""

    def __str__(self) -> str:
        return "Node"


@dataclass(frozen=True)
class EdgeType:
    """The type of variables bound to a single edge."""

    def __str__(self) -> str:
        return "Edge"


@dataclass(frozen=True)
class PathType:
    """The type of variables naming whole paths (``x = r p``)."""

    def __str__(self) -> str:
        return "Path"


@dataclass(frozen=True)
class MaybeType:
    """``Maybe(tau)`` — variables occurring on one side of a union only."""

    inner: "Type"

    def __str__(self) -> str:
        return f"Maybe({self.inner})"


@dataclass(frozen=True)
class GroupType:
    """``Group(tau)`` — variables occurring under repetition."""

    inner: "Type"

    def __str__(self) -> str:
        return f"Group({self.inner})"


Type = TUnion[NodeType, EdgeType, PathType, MaybeType, GroupType]

#: Singleton instances (types are value objects; these are conveniences).
NODE = NodeType()
EDGE = EdgeType()
PATH = PathType()


def maybe_wrap(tau: Type) -> Type:
    """The paper's ``tau?``: ``tau`` if already a ``Maybe``, else
    ``Maybe(tau)``. Guarantees no nested ``Maybe(Maybe(...))``."""
    if isinstance(tau, MaybeType):
        return tau
    return MaybeType(tau)


def is_singleton(tau: Type) -> bool:
    """Whether ``tau`` is ``Node`` or ``Edge`` (Definition 5)."""
    return isinstance(tau, (NodeType, EdgeType))


def type_depth(tau: Type) -> int:
    """Nesting depth of constructors (0 for the atomic types)."""
    if isinstance(tau, (MaybeType, GroupType)):
        return 1 + type_depth(tau.inner)
    return 0
