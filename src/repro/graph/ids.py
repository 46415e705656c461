"""Identifier sorts for property graphs.

The paper assumes three pairwise-disjoint countable sets of identifiers:
``N`` (nodes), ``E_d`` (directed edges) and ``E_u`` (undirected edges).
We realise each sort as a small immutable wrapper around an arbitrary
hashable key. Wrapping (rather than using bare strings) gives us the
disjointness guarantee *by type*: a ``NodeId("1")`` never compares equal
to a ``DirectedEdgeId("1")``, exactly as in the formal model.
"""

from __future__ import annotations

from typing import Hashable, Union

__all__ = [
    "NodeId",
    "DirectedEdgeId",
    "UndirectedEdgeId",
    "EdgeId",
    "GraphElementId",
]


class _Id:
    """Common behaviour of all identifier sorts.

    Instances are immutable, hashable, and ordered *within a sort* by
    their key (cross-sort comparisons order by sort name so that sorted
    containers of mixed ids are deterministic).
    """

    __slots__ = ("key",)

    #: Short human-readable tag used in ``repr`` (overridden per sort).
    _tag = "id"

    def __init__(self, key: Hashable):
        if isinstance(key, _Id):
            raise TypeError("id keys must be plain hashable values, not ids")
        object.__setattr__(self, "key", key)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.key == other.key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        # The key alone: hashing an answer set runs this once per id
        # occurrence. Ids of different sorts with equal keys share a
        # bucket and stay apart by __eq__.
        return hash(self.key)

    def __lt__(self, other: "_Id") -> bool:
        if not isinstance(other, _Id):
            return NotImplemented
        if type(self) is not type(other):
            return self._tag < other._tag
        try:
            return self.key < other.key  # type: ignore[operator]
        except TypeError:
            return repr(self.key) < repr(other.key)

    def __le__(self, other: "_Id") -> bool:
        return self == other or self < other

    def __reduce__(self):
        # The immutability guard (__setattr__ raises) defeats the
        # default slots pickling path; rebuild through __init__ instead.
        # Ids must pickle: snapshots ship to process-pool workers.
        return (type(self), (self.key,))

    def __repr__(self) -> str:
        return f"{self._tag}({self.key!r})"

    def __str__(self) -> str:
        return str(self.key)


class NodeId(_Id):
    """Identifier of a node (an element of the paper's set ``N``)."""

    __slots__ = ()
    _tag = "node"


class DirectedEdgeId(_Id):
    """Identifier of a directed edge (an element of ``E_d``)."""

    __slots__ = ()
    _tag = "dedge"


class UndirectedEdgeId(_Id):
    """Identifier of an undirected edge (an element of ``E_u``)."""

    __slots__ = ()
    _tag = "uedge"


#: Any edge identifier, directed or undirected.
EdgeId = Union[DirectedEdgeId, UndirectedEdgeId]

#: Any graph element identifier.
GraphElementId = Union[NodeId, DirectedEdgeId, UndirectedEdgeId]
