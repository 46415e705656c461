"""Paths (walks) in property graphs.

A *path* is an alternating sequence ``u0 e1 u1 ... en un`` of nodes and
edges starting and ending with a node (Section 2). Length-0 paths
(single nodes) are allowed and act as units of concatenation. Following
the graph-database literature, paths are what graph theory calls walks:
nodes and edges may repeat.

:class:`Path` is immutable and hashable so it can be used directly as a
semantic value (``V_Path = Paths``) and stored in answer sets.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import PathError
from repro.graph.ids import DirectedEdgeId, EdgeId, NodeId, UndirectedEdgeId
from repro.graph.property_graph import PropertyGraph

__all__ = [
    "Path",
    "concat_paths",
    "is_trail",
    "is_simple",
    "path_in_graph",
]


class Path:
    """An immutable alternating node/edge sequence.

    Construct with :meth:`Path.node` for single-node paths or
    :meth:`Path.of` for the general case. ``elements`` always has odd
    length ``2n + 1`` for a path of length ``n``.
    """

    __slots__ = ("_elements", "_hash")

    def __init__(self, elements: Sequence[NodeId | EdgeId]):
        elements = tuple(elements)
        _validate_alternation(elements)
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_hash", hash(elements))

    @classmethod
    def _trusted(cls, elements: tuple[NodeId | EdgeId, ...]) -> "Path":
        """A path over ``elements`` without re-validating them: for
        node-to-node slices, joins and reversals of paths that were
        validated when they were built."""
        path = object.__new__(cls)
        object.__setattr__(path, "_elements", elements)
        object.__setattr__(path, "_hash", hash(elements))
        return path

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Path is immutable")

    def __reduce__(self):
        # The immutability guard defeats default slots pickling;
        # rebuild through __init__ (paths travel to process-pool
        # workers inside answers).
        return (type(self), (self._elements,))

    # -- constructors ---------------------------------------------------

    @classmethod
    def node(cls, node: NodeId) -> "Path":
        """The edgeless path ``path(u)``."""
        return cls((node,))

    @classmethod
    def of(cls, *elements: NodeId | EdgeId) -> "Path":
        """Build ``path(u0, e1, u1, ..., en, un)`` from its elements."""
        return cls(elements)

    # -- the formal accessors -------------------------------------------

    @property
    def elements(self) -> tuple[NodeId | EdgeId, ...]:
        """The full alternating sequence."""
        return self._elements

    @property
    def src(self) -> NodeId:
        """``src(p)``: the first node."""
        return self._elements[0]  # type: ignore[return-value]

    @property
    def tgt(self) -> NodeId:
        """``tgt(p)``: the last node."""
        return self._elements[-1]  # type: ignore[return-value]

    @property
    def endpoints(self) -> tuple[NodeId, NodeId]:
        return (self.src, self.tgt)

    def __len__(self) -> int:
        """``len(p)``: the number of edge occurrences."""
        return (len(self._elements) - 1) // 2

    @property
    def length(self) -> int:
        """Alias for ``len(p)`` readable in expressions."""
        return len(self)

    @property
    def is_edgeless(self) -> bool:
        """Whether this is a length-0 (single node) path."""
        return len(self._elements) == 1

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """The node occurrences ``u0, ..., un`` in order."""
        return self._elements[0::2]  # type: ignore[return-value]

    @property
    def edges(self) -> tuple[EdgeId, ...]:
        """The edge occurrences ``e1, ..., en`` in order."""
        return self._elements[1::2]  # type: ignore[return-value]

    def steps(self) -> Iterator[tuple[NodeId, EdgeId, NodeId]]:
        """Iterate over ``(u_{i-1}, e_i, u_i)`` triples."""
        els = self._elements
        for i in range(1, len(els), 2):
            yield els[i - 1], els[i], els[i + 1]  # type: ignore[misc]

    @property
    def size(self) -> int:
        """``|p|``: total number of node and edge occurrences (App. C)."""
        return len(self._elements)

    # -- algebra ---------------------------------------------------------

    def concat(self, other: "Path") -> "Path":
        """Concatenation ``p . p'`` — defined iff ``tgt(p) = src(p')``.

        Edgeless paths are units: ``p . path(u) = p`` when ``u =
        tgt(p)``.
        """
        if self.tgt != other.src:
            raise PathError(
                f"paths do not concatenate: tgt {self.tgt!r} != src {other.src!r}"
            )
        return Path._trusted(self._elements + other._elements[1:])

    def concatenates_with(self, other: "Path") -> bool:
        """Whether ``self . other`` is defined."""
        return self.tgt == other.src

    def subpath(self, start: int, stop: int) -> "Path":
        """The subpath spanning node positions ``start..stop``
        (inclusive, 0-based over node occurrences)."""
        n = len(self)
        if not (0 <= start <= stop <= n):
            raise PathError(f"invalid subpath bounds {start}..{stop} for length {n}")
        return Path._trusted(self._elements[2 * start : 2 * stop + 1])

    def reversed(self) -> "Path":
        """The reverse sequence (useful for backward traversal checks).

        Note: the reverse of a path in *G* is a path in *G* only if all
        its directed edges can be traversed in the opposite direction,
        which the walk relation in Section 2 permits.
        """
        return Path._trusted(self._elements[::-1])

    # -- dunders ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and self._elements == other._elements

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Path") -> bool:
        """Radix order: by length first, then lexicographically by
        elements. This is the order Theorem 12's enumerator uses."""
        if not isinstance(other, Path):
            return NotImplemented
        if len(self._elements) != len(other._elements):
            return len(self._elements) < len(other._elements)
        return self._elements < other._elements

    def __le__(self, other: "Path") -> bool:
        return self == other or self < other

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self._elements)
        return f"path({inner})"

    def __iter__(self) -> Iterator[NodeId | EdgeId]:
        return iter(self._elements)


_NODE_SORTS = frozenset({NodeId})
_EDGE_SORTS = frozenset({DirectedEdgeId, UndirectedEdgeId})


def _validate_alternation(elements: tuple[NodeId | EdgeId, ...]) -> None:
    if (
        len(elements) & 1
        and _NODE_SORTS.issuperset(map(type, elements[0::2]))
        and _EDGE_SORTS.issuperset(map(type, elements[1::2]))
    ):
        return  # the common case, checked in bulk; the loop names a fault
    if not elements:
        raise PathError("a path must contain at least one node")
    if len(elements) % 2 == 0:
        raise PathError("a path must start and end with a node")
    for i, element in enumerate(elements):
        if i % 2 == 0:
            if not isinstance(element, NodeId):
                raise PathError(
                    f"position {i} must be a node, got {element!r}"
                )
        else:
            if isinstance(element, NodeId):
                raise PathError(f"position {i} must be an edge, got {element!r}")


def concat_paths(*paths: Path) -> Path:
    """Concatenate a non-empty sequence of pairwise-concatenating paths."""
    if not paths:
        raise PathError("cannot concatenate zero paths")
    result = paths[0]
    for path in paths[1:]:
        result = result.concat(path)
    return result


def is_trail(path: Path) -> bool:
    """No edge occurs more than once (the ``trail`` restrictor)."""
    edges = path.edges
    return len(edges) == len(set(edges))


def is_simple(path: Path) -> bool:
    """No node occurs more than once (the ``simple`` restrictor)."""
    nodes = path.nodes
    return len(nodes) == len(set(nodes))


def path_in_graph(path: Path, graph: PropertyGraph) -> bool:
    """Whether ``path`` is a path *in* ``graph`` (Section 2).

    Each edge must connect the nodes before and after it: forward,
    backward, or undirected traversal (cases (a)-(c) in the paper).
    """
    if not graph.has_node(path.src):
        return False
    # ``edge in graph.directed_edges`` would scan a snapshot's carrier
    # tuple — O(E) per path step; the membership methods are O(1).
    for before, edge, after in path.steps():
        if not graph.has_node(before) or not graph.has_node(after):
            return False
        if graph.has_directed_edge(edge):
            forward = graph.source(edge) == before and graph.target(edge) == after
            backward = graph.source(edge) == after and graph.target(edge) == before
            if not (forward or backward):
                return False
        elif graph.has_undirected_edge(edge):
            if graph.endpoints(edge) != frozenset({before, after}):
                return False
        else:
            return False
    return True
