"""Semantic values (Definition 7).

Values of type ``tau`` are:

- ``V_Node = N`` — node ids;
- ``V_Edge = E_d | E_u`` — edge ids;
- ``V_Path = Paths`` — paths;
- ``V_Maybe(tau) = V_tau | {Nothing}`` — with the special ``Nothing``;
- ``V_Group(tau)`` — lists of ``(path, value)`` pairs.

GPC returns *references* to graph elements, never the constants they
carry, so elements of ``Const`` are not values. All values here are
immutable and hashable, which is what lets answer sets be genuine sets
(the calculus has set semantics).
"""

from __future__ import annotations

from typing import Iterator, Union as TUnion

from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.paths import Path
from repro.gpc.types import (
    EdgeType,
    GroupType,
    MaybeType,
    NodeType,
    PathType,
    Type,
)

__all__ = ["Nothing", "NothingType", "GroupValue", "Value", "conforms"]


class NothingType:
    """The special value assigned to absent optional variables.

    A singleton: ``NothingType() is Nothing`` always holds.
    """

    _instance: "NothingType | None" = None

    def __new__(cls) -> "NothingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Nothing"

    def __hash__(self) -> int:
        return hash("repro.gpc.Nothing")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NothingType)

    def __bool__(self) -> bool:
        return False


#: The unique ``Nothing`` value.
Nothing = NothingType()


class GroupValue:
    """A composite value ``list((p1, v1), ..., (pn, vn))``.

    Each entry pairs the portion ``p_i`` of the matched path with the
    value ``v_i`` the variable took on that portion. ``n = 0`` (the
    empty list) is the value group variables take in the 0th power of a
    repetition.

    Every list is taken along one path, so there are two ways to build
    one: ``GroupValue(entries)`` from the pairs, and
    :meth:`GroupValue.over` from that path's elements, each portion's
    ``(begin, end)`` element offsets into them and the values — what the
    witness pass and the wire decoder have in hand. The second builds
    ``entries`` and ``paths`` on first read; ``values``, ``len``,
    ``hash`` (a function of ``values``), ``==`` and the run of
    :meth:`chain` are read off the offsets. Both forms are one value:
    equal lists are equal, hash-equal and print alike whichever way
    they were built.
    """

    __slots__ = ("_entries", "_walk", "_spans", "_values")

    def __init__(self, entries: tuple[tuple[Path, "Value"], ...] = ()) -> None:
        entries = tuple(entries)
        for entry in entries:
            if len(entry) != 2 or not isinstance(entry[0], Path):
                raise TypeError(f"group entries must be (Path, value) pairs: {entry!r}")
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_walk", None)
        object.__setattr__(self, "_spans", None)
        object.__setattr__(self, "_values", tuple([v for _, v in entries]))

    @classmethod
    def over(
        cls, walk: tuple, spans: tuple[tuple[int, int], ...], values: tuple["Value", ...]
    ) -> "GroupValue":
        """The list whose ``i``-th entry is ``(path(walk[begin:end]),
        values[i])`` for ``(begin, end) = spans[i]``: trusted, so each
        span must be a node-to-node slice of the alternating ``walk``."""
        group = object.__new__(cls)
        object.__setattr__(group, "_entries", None)
        object.__setattr__(group, "_walk", walk)
        object.__setattr__(group, "_spans", spans)
        object.__setattr__(group, "_values", values)
        return group

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GroupValue is immutable")

    def __reduce__(self):
        # The immutability guard defeats default slots pickling; groups
        # travel to process-pool workers inside answers.
        if self._walk is None:
            return (GroupValue, (self._entries,))
        return (GroupValue.over, (self._walk, self._spans, self._values))

    @property
    def entries(self) -> tuple[tuple[Path, "Value"], ...]:
        """The ``(p_i, v_i)`` pairs, in order."""
        if self._entries is None:
            walk = self._walk
            paths = [Path._trusted(walk[begin:end]) for begin, end in self._spans]
            object.__setattr__(self, "_entries", tuple(zip(paths, self._values)))
        return self._entries

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[tuple[Path, "Value"]]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> tuple[Path, "Value"]:
        return self.entries[index]

    @property
    def values(self) -> tuple["Value", ...]:
        """Just the ``v_i`` components, in order."""
        return self._values

    @property
    def paths(self) -> tuple[Path, ...]:
        """Just the ``p_i`` components, in order."""
        return tuple([p for p, _ in self.entries])

    @property
    def portions(self) -> tuple[tuple, ...]:
        """The elements of each ``p_i``, in order."""
        if self._entries is None:
            walk = self._walk
            return tuple([walk[begin:end] for begin, end in self._spans])
        return tuple([p.elements for p, _ in self._entries])

    def chain(self) -> "tuple | None":
        """The elements ``u0 e1 u1 ... en un`` when the entries are the
        consecutive one-edge portions ``(u_{i-1} e_i u_i)`` of a walk
        (what ``-[e]->{1,8}`` binds), ``None`` otherwise and for the
        empty list. Read off the offsets when they lie so."""
        spans = self._spans
        if spans:
            begin, end = spans[0][0], spans[0][0] + 2 * len(spans)
            if all(s == (b, b + 3) for s, b in zip(spans, range(begin, end, 2))):
                return self._walk[begin : end + 1]
        parts = self.portions
        if not parts or any(len(part) != 3 for part in parts):
            return None
        if any(a[2] != b[0] for a, b in zip(parts, parts[1:])):
            return None
        return parts[0] + tuple([item for part in parts[1:] for item in part[1:]])

    def append(self, path: Path, value: "Value") -> "GroupValue":
        """A new group with one more entry (groups are immutable)."""
        return GroupValue(self.entries + ((path, value),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupValue):
            return NotImplemented
        return self is other or (
            self._values == other._values and self.portions == other.portions
        )

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"({p!r}, {v!r})" for p, v in self.entries)
        return f"list({inner})"


Value = TUnion[NodeId, DirectedEdgeId, UndirectedEdgeId, Path, NothingType, GroupValue]


def conforms(value: Value, tau: Type) -> bool:
    """Whether ``value`` belongs to ``V_tau`` (Definition 7)."""
    if isinstance(tau, NodeType):
        return isinstance(value, NodeId)
    if isinstance(tau, EdgeType):
        return isinstance(value, (DirectedEdgeId, UndirectedEdgeId))
    if isinstance(tau, PathType):
        return isinstance(value, Path)
    if isinstance(tau, MaybeType):
        return isinstance(value, NothingType) or conforms(value, tau.inner)
    if isinstance(tau, GroupType):
        if not isinstance(value, GroupValue):
            return False
        # Every p_i is a Path by construction; the v_i need the check.
        return all(conforms(v, tau.inner) for v in value.values)
    raise TypeError(f"not a value type: {tau!r}")
