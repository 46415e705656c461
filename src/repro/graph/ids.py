"""Identifier sorts for property graphs.

The paper assumes three pairwise-disjoint countable sets of identifiers:
``N`` (nodes), ``E_d`` (directed edges) and ``E_u`` (undirected edges).
We realise each sort as an immutable ``(sort tag, key)`` pair around an
arbitrary hashable key. Wrapping (rather than using bare strings) gives
us the disjointness guarantee *by construction*: a ``NodeId("1")`` never
compares equal to a ``DirectedEdgeId("1")``, exactly as in the formal
model.

Why pairs: every id is a dict key or set member somewhere (adjacency,
snapshot interning, answer sets, the wire), so hashing and ``==`` are
the hottest operations on it. As a ``tuple`` subclass with no Python
``__hash__`` or ``__eq__``, both run in C. The tag is a private
``object()`` sentinel per sort, never a string, so a value equals an id
only if it holds that sentinel: no plain tuple of a tag name and a key
does, and no bare key does. A sentinel hashes by address, so the
iteration order of a set of ids is not fixed by ``PYTHONHASHSEED``
across processes; nothing may depend on it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Union

__all__ = [
    "NodeId",
    "DirectedEdgeId",
    "UndirectedEdgeId",
    "EdgeId",
    "GraphElementId",
]


class _Id(tuple):
    """Common behaviour of all identifier sorts.

    Instances are immutable, hashable, and ordered *within a sort* by
    their key (cross-sort comparisons order by sort name so that sorted
    containers of mixed ids are deterministic).
    """

    __slots__ = ()

    #: Short human-readable tag used in ``repr`` and cross-sort
    #: ordering (overridden per sort).
    _tag = "id"
    #: The sort's sentinel, item 0 of every id of the sort.
    _sort: object

    def __new__(cls, key: Hashable):
        if isinstance(key, _Id):
            raise TypeError("id keys must be plain hashable values, not ids")
        return tuple.__new__(cls, (cls._sort, key))

    #: The wrapped key (item 1).
    key = property(itemgetter(1))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, _Id):
            return NotImplemented
        if self[0] is not other[0]:
            return self._tag < other._tag
        try:
            return self[1] < other[1]
        except TypeError:
            return repr(self[1]) < repr(other[1])

    def __le__(self, other: object) -> bool:
        if not isinstance(other, _Id):
            return NotImplemented
        return self == other or self < other

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, _Id):
            return NotImplemented
        return other < self

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, _Id):
            return NotImplemented
        return other <= self

    def __reduce__(self):
        # Rebuild from the key: the sentinel is per process, so it must
        # not travel. Ids must pickle: snapshots ship to process-pool
        # workers.
        return (type(self), (self[1],))

    def __repr__(self) -> str:
        return f"{self._tag}({self[1]!r})"

    def __str__(self) -> str:
        return str(self[1])


class NodeId(_Id):
    """Identifier of a node (an element of the paper's set ``N``)."""

    __slots__ = ()
    _tag = "node"
    _sort = object()


class DirectedEdgeId(_Id):
    """Identifier of a directed edge (an element of ``E_d``)."""

    __slots__ = ()
    _tag = "dedge"
    _sort = object()


class UndirectedEdgeId(_Id):
    """Identifier of an undirected edge (an element of ``E_u``)."""

    __slots__ = ()
    _tag = "uedge"
    _sort = object()


#: Any edge identifier, directed or undirected.
EdgeId = Union[DirectedEdgeId, UndirectedEdgeId]

#: Any graph element identifier.
GraphElementId = Union[NodeId, DirectedEdgeId, UndirectedEdgeId]
