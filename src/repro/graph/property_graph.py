"""The property-graph data model (Section 2 of the paper).

A property graph is a tuple ``G = <N, Ed, Eu, lambda, endpoints, src,
tgt, delta>`` where

- ``N``, ``Ed``, ``Eu`` are finite, pairwise-disjoint sets of node,
  directed-edge and undirected-edge identifiers;
- ``lambda`` assigns a finite (possibly empty) set of labels to every
  identifier;
- ``src``/``tgt`` give the endpoints of directed edges;
- ``endpoints`` gives the 1- or 2-element endpoint set of undirected
  edges (a singleton encodes an undirected self-loop);
- ``delta`` is a partial function from ``(id, key)`` to constants.

Property graphs are multigraphs (parallel edges allowed), pseudographs
(self-loops allowed) and mixed graphs (directed and undirected edges
coexist). :class:`PropertyGraph` enforces all the structural invariants
at mutation time so that evaluation code can rely on them.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.snapshot import GraphSnapshot

from repro.errors import DuplicateIdError, GraphError, UnknownIdError
from repro.graph.delta import (
    DEFAULT_DELTA_LOG_CAPACITY,
    DEFAULT_SNAPSHOT_DELTA_THRESHOLD,
    DirectedEdgeRecord,
    GraphDelta,
    NodeRecord,
    UndirectedEdgeRecord,
    freeze_properties,
)
from repro.graph.ids import (
    DirectedEdgeId,
    EdgeId,
    GraphElementId,
    NodeId,
    UndirectedEdgeId,
)

__all__ = ["PropertyGraph"]

#: Property values are constants from the paper's set ``Const``; we admit
#: any immutable Python scalar.
Constant = Hashable


def _check_constant(value: object) -> None:
    if value is None:
        # ``None`` encodes "delta undefined" in get_property; storing
        # it would create a key that has_property reports as absent.
        raise GraphError(
            "None is not an admissible constant; use remove_property "
            "to make a property undefined"
        )
    if isinstance(value, (list, dict, set, bytearray)):
        raise GraphError(
            f"property values must be immutable constants, got {type(value).__name__}"
        )
    if isinstance(value, tuple):
        # Tuples, ids included, are hashable only when their items are; a
        # mutable value smuggled inside (e.g. ("a", [1])) would break
        # hashing downstream.
        for item in value:
            _check_constant(item)


class PropertyGraph:
    """A mutable property graph: the paper's tuple and nothing else.

    The class exposes the formal model's accessors (``labels``,
    ``source``, ``target``, ``endpoints``, ``get_property``). Adjacency
    (``out_edges``, ``in_edges``, ``undirected_edges_at``, ``degree``,
    ``neighbours``) is an index, and the index lives on the immutable
    :meth:`snapshot`, memoised per version.

    Example
    -------
    >>> g = PropertyGraph()
    >>> alice = g.add_node("alice", labels={"Person"}, properties={"name": "Alice"})
    >>> bob = g.add_node("bob", labels={"Person"})
    >>> e = g.add_edge("e1", alice, bob, labels={"knows"})
    >>> g.source(e) == alice and g.target(e) == bob
    True
    """

    def __init__(
        self,
        *,
        delta_log_capacity: int = DEFAULT_DELTA_LOG_CAPACITY,
        snapshot_delta_threshold: float = DEFAULT_SNAPSHOT_DELTA_THRESHOLD,
    ) -> None:
        self._node_labels: dict[NodeId, frozenset[str]] = {}
        self._dedge_labels: dict[DirectedEdgeId, frozenset[str]] = {}
        self._uedge_labels: dict[UndirectedEdgeId, frozenset[str]] = {}
        #: One object per distinct label set: a graph has few, and
        #: every element of a set shares it (see :meth:`_interned`).
        self._label_sets: dict[frozenset[str], frozenset[str]] = {}
        self._src: dict[DirectedEdgeId, NodeId] = {}
        self._tgt: dict[DirectedEdgeId, NodeId] = {}
        self._endpoints: dict[UndirectedEdgeId, frozenset[NodeId]] = {}
        self._properties: dict[GraphElementId, dict[str, Constant]] = {}
        # Monotonic mutation counter; drives snapshot memoisation and
        # cache invalidation in the service layer. Every bump appends
        # one GraphDelta to the bounded log below.
        self._version = 0
        self._snapshot_cache: "GraphSnapshot | None" = None
        self._snapshot_lock = threading.Lock()
        #: Guards the delta log (and the version/log pair) against
        #: concurrent readers: deltas_since may be called from cache
        #: lookups on other threads while a mutator appends, and a
        #: bounded deque mutated mid-iteration raises RuntimeError.
        self._delta_lock = threading.Lock()
        self._delta_log: deque[GraphDelta] = deque(maxlen=delta_log_capacity)
        #: Fraction of graph size a delta chain may reach before
        #: :meth:`snapshot` rebuilds instead of deriving incrementally.
        self.snapshot_delta_threshold = snapshot_delta_threshold
        #: Observability counters for the two snapshot paths.
        self.snapshot_rebuilds = 0
        self.snapshot_derivations = 0

    # ------------------------------------------------------------------
    # Versioning, deltas and snapshots
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing counter, bumped by every mutation.

        Two reads of an equal version are guaranteed to observe the
        same graph; the query-service layer keys its result caches on
        it and :meth:`snapshot` memoises per version.
        """
        return self._version

    def _bump(self, delta: GraphDelta) -> None:
        # The previous version's snapshot memo is deliberately *kept*:
        # it is the base the next snapshot() call patches with `delta`.
        with self._delta_lock:
            self._version = delta.version
            self._delta_log.append(delta)

    def deltas_since(self, version: int) -> "tuple[GraphDelta, ...] | None":
        """The contiguous delta chain from ``version`` (exclusive) to
        the current version, or ``None`` when the bounded log no longer
        covers it (or ``version`` is from the future / another graph).

        An empty tuple means ``version`` *is* the current version.
        Thread-safe against concurrent mutators: the version/log pair
        is read atomically (semantic cache lookups call this from
        serving threads while writers bump).
        """
        with self._delta_lock:
            current = self._version
            if version >= current:
                return () if version == current else None
            log = tuple(self._delta_log)
        chain: list[GraphDelta] = []
        for delta in reversed(log):
            if delta.version <= version:
                break
            chain.append(delta)
        chain.reverse()
        if not chain or chain[0].version != version + 1:
            return None  # the log has dropped part of the chain
        if chain[-1].version != current:  # pragma: no cover - defensive
            return None
        return tuple(chain)

    def _delta_budget(self) -> float:
        """Op budget below which incremental derivation is worthwhile.

        Proportional to graph size, with a small absolute floor: a
        handful of operations is always cheaper to patch than a full
        re-index, however small the graph.
        """
        size = self.num_nodes + self.num_edges
        return max(16.0, self.snapshot_delta_threshold * size)

    def snapshot(self) -> "GraphSnapshot":
        """An immutable, fully indexed view of the current version.

        The snapshot is memoised per version. When the graph has moved
        past the memoised version by a *small* delta chain (relative to
        graph size, see :attr:`snapshot_delta_threshold`), the new
        snapshot is **derived** by patching the previous one
        (:meth:`GraphSnapshot.derive`) instead of rebuilding every
        index from scratch; large chains fall back to a full rebuild.
        The whole check-and-build runs under a lock, so concurrent
        callers racing a version bump share one build instead of
        interleaving two.
        """
        with self._snapshot_lock:
            cached = self._snapshot_cache
            if cached is not None and cached.version == self._version:
                return cached
            from repro.graph.snapshot import GraphSnapshot

            snap: "GraphSnapshot | None" = None
            if cached is not None:
                deltas = self.deltas_since(cached.version)
                # The budget covers the *accumulated* overlay, not just
                # this chain: a long run of tiny derives would otherwise
                # grow the copy-on-write overlays (and the set of
                # patched CSR rows the dense fast paths must detour
                # around) without bound. Once the cumulative overlay
                # work crosses the budget, a rebuild re-interns
                # everything into fresh columns.
                if deltas is not None and (
                    cached.overlay_ops
                    + sum(d.size for d in deltas)
                    <= self._delta_budget()
                ):
                    snap = GraphSnapshot.derive(cached, deltas)
                    self.snapshot_derivations += 1
            if snap is None:
                snap = GraphSnapshot(self)
                self.snapshot_rebuilds += 1
            self._snapshot_cache = snap
            return snap

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(
        self,
        key: Hashable,
        labels: Iterable[str] = (),
        properties: Mapping[str, Constant] | None = None,
    ) -> NodeId:
        """Add a node and return its :class:`NodeId`.

        ``key`` must be unique among this graph's nodes.
        """
        node = key if isinstance(key, NodeId) else NodeId(key)
        if node in self._node_labels:
            raise DuplicateIdError(f"node {node!r} already exists")
        self._node_labels[node] = self._interned(labels)
        if properties:
            self._set_properties(node, properties)
        self._bump(
            GraphDelta(
                version=self._version + 1,
                nodes_added=(self._node_record(node),),
            )
        )
        return node

    def add_edge(
        self,
        key: Hashable,
        source: NodeId,
        target: NodeId,
        labels: Iterable[str] = (),
        properties: Mapping[str, Constant] | None = None,
    ) -> DirectedEdgeId:
        """Add a directed edge from ``source`` to ``target``."""
        edge = key if isinstance(key, DirectedEdgeId) else DirectedEdgeId(key)
        if edge in self._dedge_labels:
            raise DuplicateIdError(f"directed edge {edge!r} already exists")
        self._require_node(source)
        self._require_node(target)
        self._dedge_labels[edge] = self._interned(labels)
        self._src[edge] = source
        self._tgt[edge] = target
        if properties:
            self._set_properties(edge, properties)
        self._bump(
            GraphDelta(
                version=self._version + 1,
                dedges_added=(self._dedge_record(edge),),
            )
        )
        return edge

    def add_undirected_edge(
        self,
        key: Hashable,
        endpoint_a: NodeId,
        endpoint_b: NodeId,
        labels: Iterable[str] = (),
        properties: Mapping[str, Constant] | None = None,
    ) -> UndirectedEdgeId:
        """Add an undirected edge between the two endpoints.

        Passing the same node twice creates an undirected self-loop,
        whose ``endpoints`` set is a singleton, as in the paper.
        """
        edge = key if isinstance(key, UndirectedEdgeId) else UndirectedEdgeId(key)
        if edge in self._uedge_labels:
            raise DuplicateIdError(f"undirected edge {edge!r} already exists")
        self._require_node(endpoint_a)
        self._require_node(endpoint_b)
        self._uedge_labels[edge] = self._interned(labels)
        self._endpoints[edge] = frozenset({endpoint_a, endpoint_b})
        if properties:
            self._set_properties(edge, properties)
        self._bump(
            GraphDelta(
                version=self._version + 1,
                uedges_added=(self._uedge_record(edge),),
            )
        )
        return edge

    def _interned(self, labels: Iterable[str]) -> frozenset[str]:
        """``frozenset(labels)``, as the one object this graph holds for
        that set."""
        fresh = frozenset(labels)
        return self._label_sets.setdefault(fresh, fresh)

    def set_property(self, element: GraphElementId, key: str, value: Constant) -> None:
        """Define ``delta(element, key) = value``."""
        self._require_element(element)
        _check_constant(value)
        self._properties.setdefault(element, {})[key] = value
        self._bump(
            GraphDelta(
                version=self._version + 1,
                properties_set=((element, key, value),),
            )
        )

    def remove_property(self, element: GraphElementId, key: str) -> None:
        """Make ``delta(element, key)`` undefined again."""
        self._require_element(element)
        props = self._properties.get(element)
        if not props or key not in props:
            raise UnknownIdError(f"no property {key!r} on {element!r}")
        del props[key]
        if not props:
            del self._properties[element]
        self._bump(
            GraphDelta(
                version=self._version + 1,
                properties_removed=((element, key),),
            )
        )

    def remove_edge(self, edge: DirectedEdgeId) -> None:
        """Remove a directed edge and its properties."""
        if edge not in self._dedge_labels:
            raise UnknownIdError(f"unknown directed edge {edge!r}")
        record = self._drop_dedge(edge)
        self._bump(
            GraphDelta(version=self._version + 1, dedges_removed=(record,))
        )

    def remove_undirected_edge(self, edge: UndirectedEdgeId) -> None:
        """Remove an undirected edge and its properties."""
        if edge not in self._uedge_labels:
            raise UnknownIdError(f"unknown undirected edge {edge!r}")
        record = self._drop_uedge(edge)
        self._bump(
            GraphDelta(version=self._version + 1, uedges_removed=(record,))
        )

    def remove_node(self, node: NodeId) -> None:
        """Remove a node together with every incident edge (cascade).

        The incident edges are the current :meth:`snapshot`'s rows of
        ``node`` (memoised per version, so a cached or derived snapshot
        answers in a row lookup). The version counter is bumped exactly
        once for the whole cascade, recording one delta that lists the
        node and every removed edge.
        """
        self._require_node(node)
        view = self.snapshot()
        node_record = self._node_record(node)
        # A directed self-loop sits in both rows; dict.fromkeys keeps one.
        dedges = dict.fromkeys(view.out_edges(node) + view.in_edges(node))
        dedge_records = tuple(self._drop_dedge(edge) for edge in dedges)
        uedge_records = tuple(
            self._drop_uedge(edge) for edge in view.undirected_edges_at(node)
        )
        del self._node_labels[node]
        self._properties.pop(node, None)
        self._bump(
            GraphDelta(
                version=self._version + 1,
                nodes_removed=(node_record,),
                dedges_removed=dedge_records,
                uedges_removed=uedge_records,
            )
        )

    def _drop_dedge(self, edge: DirectedEdgeId) -> DirectedEdgeRecord:
        """Delete a directed edge from the tuple; return its record."""
        record = self._dedge_record(edge)
        del self._dedge_labels[edge]
        del self._src[edge]
        del self._tgt[edge]
        self._properties.pop(edge, None)
        return record

    def _drop_uedge(self, edge: UndirectedEdgeId) -> UndirectedEdgeRecord:
        """Delete an undirected edge from the tuple; return its record."""
        record = self._uedge_record(edge)
        del self._uedge_labels[edge]
        del self._endpoints[edge]
        self._properties.pop(edge, None)
        return record

    def _node_record(self, node: NodeId) -> NodeRecord:
        return NodeRecord(
            node,
            self._node_labels[node],
            freeze_properties(self._properties.get(node)),
        )

    def _dedge_record(self, edge: DirectedEdgeId) -> DirectedEdgeRecord:
        return DirectedEdgeRecord(
            edge,
            self._src[edge],
            self._tgt[edge],
            self._dedge_labels[edge],
            freeze_properties(self._properties.get(edge)),
        )

    def _uedge_record(self, edge: UndirectedEdgeId) -> UndirectedEdgeRecord:
        return UndirectedEdgeRecord(
            edge,
            self._endpoints[edge],
            self._uedge_labels[edge],
            freeze_properties(self._properties.get(edge)),
        )

    def _set_properties(
        self, element: GraphElementId, properties: Mapping[str, Constant]
    ) -> None:
        for key, value in properties.items():
            if not isinstance(key, str):
                raise GraphError(f"property keys must be strings, got {key!r}")
            _check_constant(value)
        self._properties[element] = dict(properties)

    # ------------------------------------------------------------------
    # The formal accessors
    # ------------------------------------------------------------------

    def labels(self, element: GraphElementId) -> frozenset[str]:
        """Return ``lambda(element)``, the element's label set."""
        for table in (self._node_labels, self._dedge_labels, self._uedge_labels):
            if element in table:
                return table[element]  # type: ignore[index]
        raise UnknownIdError(f"unknown element {element!r}")

    def source(self, edge: DirectedEdgeId) -> NodeId:
        """Return ``src(edge)`` for a directed edge."""
        try:
            return self._src[edge]
        except KeyError:
            raise UnknownIdError(f"unknown directed edge {edge!r}") from None

    def target(self, edge: DirectedEdgeId) -> NodeId:
        """Return ``tgt(edge)`` for a directed edge."""
        try:
            return self._tgt[edge]
        except KeyError:
            raise UnknownIdError(f"unknown directed edge {edge!r}") from None

    def endpoints(self, edge: UndirectedEdgeId) -> frozenset[NodeId]:
        """Return ``endpoints(edge)`` (1 or 2 nodes) for an undirected edge."""
        try:
            return self._endpoints[edge]
        except KeyError:
            raise UnknownIdError(f"unknown undirected edge {edge!r}") from None

    def get_property(self, element: GraphElementId, key: str) -> Constant | None:
        """Return ``delta(element, key)``, or ``None`` when undefined.

        The paper's ``delta`` is a partial function; ``None`` encodes
        "undefined" (``None`` itself is not an admissible constant).
        """
        self._require_element(element)
        props = self._properties.get(element)
        if props is None:
            return None
        return props.get(key)

    def has_property(self, element: GraphElementId, key: str) -> bool:
        """Return whether ``delta(element, key)`` is defined."""
        return self.get_property(element, key) is not None

    def properties(self, element: GraphElementId) -> Mapping[str, Constant]:
        """Return a read-only snapshot of the element's property map."""
        self._require_element(element)
        return dict(self._properties.get(element, {}))

    # ------------------------------------------------------------------
    # Iteration and counting
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> frozenset[NodeId]:
        """The node set ``N``."""
        return frozenset(self._node_labels)

    @property
    def directed_edges(self) -> frozenset[DirectedEdgeId]:
        """The directed-edge set ``E_d``."""
        return frozenset(self._dedge_labels)

    @property
    def undirected_edges(self) -> frozenset[UndirectedEdgeId]:
        """The undirected-edge set ``E_u``."""
        return frozenset(self._uedge_labels)

    @property
    def num_nodes(self) -> int:
        return len(self._node_labels)

    @property
    def num_directed_edges(self) -> int:
        return len(self._dedge_labels)

    @property
    def num_undirected_edges(self) -> int:
        return len(self._uedge_labels)

    @property
    def num_edges(self) -> int:
        """Total number of edges ``|E_d| + |E_u|``."""
        return self.num_directed_edges + self.num_undirected_edges

    def iter_nodes(self) -> Iterator[NodeId]:
        """Iterate over nodes in a deterministic (sorted) order."""
        return iter(sorted(self._node_labels))

    def iter_directed_edges(self) -> Iterator[DirectedEdgeId]:
        return iter(sorted(self._dedge_labels))

    def iter_undirected_edges(self) -> Iterator[UndirectedEdgeId]:
        return iter(sorted(self._uedge_labels))

    def nodes_with_label(self, label: str) -> frozenset[NodeId]:
        """All nodes ``u`` with ``label in lambda(u)``."""
        return frozenset(
            n for n, labels in self._node_labels.items() if label in labels
        )

    def directed_edges_with_label(self, label: str) -> frozenset[DirectedEdgeId]:
        return frozenset(
            e for e, labels in self._dedge_labels.items() if label in labels
        )

    def undirected_edges_with_label(self, label: str) -> frozenset[UndirectedEdgeId]:
        return frozenset(
            e for e, labels in self._uedge_labels.items() if label in labels
        )

    def all_labels(self) -> frozenset[str]:
        """Every label used anywhere in the graph."""
        out: set[str] = set()
        for table in (self._node_labels, self._dedge_labels, self._uedge_labels):
            for labels in table.values():
                out.update(labels)
        return frozenset(out)

    def other_endpoint(self, edge: UndirectedEdgeId, node: NodeId) -> NodeId:
        """The endpoint of ``edge`` other than ``node`` (or ``node`` for
        a self-loop)."""
        ends = self.endpoints(edge)
        if node not in ends:
            raise GraphError(f"{node!r} is not an endpoint of {edge!r}")
        if len(ends) == 1:
            return node
        (other,) = ends - {node}
        return other

    # ------------------------------------------------------------------
    # Membership / checks
    # ------------------------------------------------------------------

    def has_node(self, node: NodeId) -> bool:
        return node in self._node_labels

    def has_edge(self, edge: EdgeId) -> bool:
        return edge in self._dedge_labels or edge in self._uedge_labels

    def has_directed_edge(self, edge: DirectedEdgeId) -> bool:
        return edge in self._dedge_labels

    def has_undirected_edge(self, edge: UndirectedEdgeId) -> bool:
        return edge in self._uedge_labels

    def has_element(self, element: GraphElementId) -> bool:
        return (
            element in self._node_labels
            or element in self._dedge_labels
            or element in self._uedge_labels
        )

    def _require_node(self, node: NodeId) -> None:
        if not isinstance(node, NodeId):
            raise GraphError(f"expected a NodeId, got {node!r}")
        if node not in self._node_labels:
            raise UnknownIdError(f"unknown node {node!r}")

    def _require_element(self, element: GraphElementId) -> None:
        if not self.has_element(element):
            raise UnknownIdError(f"unknown element {element!r}")

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __contains__(self, element: object) -> bool:
        try:
            return self.has_element(element)  # type: ignore[arg-type]
        except TypeError:
            # Unhashable probes are "not an element", full stop; any
            # other exception (a deadline firing inside a user-defined
            # __hash__, say) is real and must propagate.
            return False

    def __len__(self) -> int:
        """Number of nodes (len over the primary carrier set)."""
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(nodes={self.num_nodes}, "
            f"directed_edges={self.num_directed_edges}, "
            f"undirected_edges={self.num_undirected_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return (
            self._node_labels == other._node_labels
            and self._dedge_labels == other._dedge_labels
            and self._uedge_labels == other._uedge_labels
            and self._src == other._src
            and self._tgt == other._tgt
            and self._endpoints == other._endpoints
            and self._properties == other._properties
        )

    def copy(self) -> "PropertyGraph":
        """Return an independent deep copy of this graph.

        The copy starts at version 0 with an empty delta log and no
        snapshot memo (it has no mutation history of its own), but
        inherits the incremental-snapshot tuning knobs.
        """
        new = PropertyGraph(
            delta_log_capacity=self._delta_log.maxlen
            or DEFAULT_DELTA_LOG_CAPACITY,
            snapshot_delta_threshold=self.snapshot_delta_threshold,
        )
        new._node_labels = dict(self._node_labels)
        new._dedge_labels = dict(self._dedge_labels)
        new._uedge_labels = dict(self._uedge_labels)
        new._label_sets = dict(self._label_sets)
        new._src = dict(self._src)
        new._tgt = dict(self._tgt)
        new._endpoints = dict(self._endpoints)
        new._properties = {k: dict(v) for k, v in self._properties.items()}
        return new
