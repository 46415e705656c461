"""Structured per-version mutation deltas.

Every mutation of a :class:`~repro.graph.property_graph.PropertyGraph`
bumps its version counter by exactly one and records a
:class:`GraphDelta` describing what changed: the elements added or
removed (with enough detail to re-apply the change to an immutable
snapshot) and the property keys touched. A ``remove_node`` cascade —
the node plus every incident edge — is a *single* delta under a single
version bump.

Deltas serve three consumers:

- :meth:`~repro.graph.snapshot.GraphSnapshot.derive` patches the
  previous version's snapshot instead of rebuilding all indexes from
  scratch (the mutation-path analogue of snapshot memoisation);
- :class:`DeltaSummary` — the cheap label/key fingerprint of a delta
  chain — is intersected with per-query read footprints
  (:mod:`repro.gpc.footprint`) so the service result cache invalidates
  semantically instead of globally, its removed ids let the cache
  filter a path-local answer set instead of dropping it, and its
  touched nodes seed the evaluation that extends one;
- :class:`~repro.cluster.backends.ProcessBackend` ships pickled delta
  chains to warm workers when the graph version advances by a small
  step, instead of re-shipping the whole snapshot.

Records are frozen dataclasses of plain ids, frozensets and tuples, so
deltas pickle exactly like snapshots do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.graph.ids import (
    DirectedEdgeId,
    GraphElementId,
    NodeId,
    UndirectedEdgeId,
)

__all__ = [
    "NodeRecord",
    "DirectedEdgeRecord",
    "UndirectedEdgeRecord",
    "GraphDelta",
    "DeltaSummary",
    "summarize_deltas",
    "DEFAULT_DELTA_LOG_CAPACITY",
    "DEFAULT_SNAPSHOT_DELTA_THRESHOLD",
]

#: How many per-version deltas a graph retains (a bounded ring); older
#: versions fall off and force consumers back to the rebuild/flush path.
DEFAULT_DELTA_LOG_CAPACITY = 1024

#: Above this many delta operations *relative to graph size* the
#: incremental paths (snapshot derivation, worker delta shipping) fall
#: back to a full rebuild — patching most of the graph costs more than
#: re-indexing it.
DEFAULT_SNAPSHOT_DELTA_THRESHOLD = 0.25


def freeze_properties(properties) -> tuple[tuple[str, Hashable], ...]:
    """A hashable, picklable image of a property map (sorted by key)."""
    if not properties:
        return ()
    return tuple(sorted(properties.items()))


@dataclass(frozen=True)
class NodeRecord:
    """One node as it was added or removed."""

    id: NodeId
    labels: frozenset[str]
    properties: tuple[tuple[str, Hashable], ...] = ()


@dataclass(frozen=True)
class DirectedEdgeRecord:
    """One directed edge as it was added or removed."""

    id: DirectedEdgeId
    source: NodeId
    target: NodeId
    labels: frozenset[str]
    properties: tuple[tuple[str, Hashable], ...] = ()


@dataclass(frozen=True)
class UndirectedEdgeRecord:
    """One undirected edge as it was added or removed."""

    id: UndirectedEdgeId
    endpoints: frozenset[NodeId]
    labels: frozenset[str]
    properties: tuple[tuple[str, Hashable], ...] = ()


@dataclass(frozen=True)
class GraphDelta:
    """Everything one version bump changed.

    ``version`` is the version the graph reached *after* applying this
    delta. A single mutation produces a delta populated in exactly one
    group — except ``remove_node``, whose cascade fills the node and
    both edge removal groups at once.
    """

    version: int
    nodes_added: tuple[NodeRecord, ...] = ()
    nodes_removed: tuple[NodeRecord, ...] = ()
    dedges_added: tuple[DirectedEdgeRecord, ...] = ()
    dedges_removed: tuple[DirectedEdgeRecord, ...] = ()
    uedges_added: tuple[UndirectedEdgeRecord, ...] = ()
    uedges_removed: tuple[UndirectedEdgeRecord, ...] = ()
    #: ``(element, key, value)`` triples from ``set_property``.
    properties_set: tuple[tuple[GraphElementId, str, Hashable], ...] = ()
    #: ``(element, key)`` pairs from ``remove_property``.
    properties_removed: tuple[tuple[GraphElementId, str], ...] = ()

    @property
    def size(self) -> int:
        """Number of primitive operations in this delta."""
        return (
            len(self.nodes_added)
            + len(self.nodes_removed)
            + len(self.dedges_added)
            + len(self.dedges_removed)
            + len(self.uedges_added)
            + len(self.uedges_removed)
            + len(self.properties_set)
            + len(self.properties_removed)
        )

    def summary(self) -> "DeltaSummary":
        """The label/key fingerprint used for semantic invalidation."""
        return summarize_deltas((self,))

    def __repr__(self) -> str:
        groups = []
        for name in (
            "nodes_added",
            "nodes_removed",
            "dedges_added",
            "dedges_removed",
            "uedges_added",
            "uedges_removed",
            "properties_set",
            "properties_removed",
        ):
            count = len(getattr(self, name))
            if count:
                groups.append(f"{name}={count}")
        detail = ", ".join(groups) if groups else "empty"
        return f"GraphDelta(version={self.version}, {detail})"


@dataclass(frozen=True)
class DeltaSummary:
    """What a delta chain *could have touched*, as a cheap fingerprint.

    Per element class: whether any element of that class was added or
    removed, and the union of the labels those elements carry (an
    unlabelled element contributes to the ``*_changed`` flag but to no
    label set — only an unconstrained footprint can observe it).
    ``node_property_keys`` / ``edge_property_keys`` collect keys from
    explicit property mutations, split by the mutated element's class
    (both edge classes share one set — conditions observe edge
    properties the same way regardless of direction); properties riding
    on added/removed elements are already covered by the element-class
    flags, because a query can only observe them through the element
    itself.

    A query whose :class:`~repro.gpc.footprint.QueryFootprint` is
    disjoint from this summary is guaranteed to have equal answers
    before and after the chain.

    ``removed`` holds the id of every node and edge the chain removed
    and ``rest`` summarises the chain without those removals (``None``
    when it removed nothing). An element added and removed again is in
    both, so ``rest`` still sees the addition. ``touched`` holds every
    node the chain added and both endpoints of every edge it added.
    """

    nodes_changed: bool = False
    node_labels: frozenset[str] = frozenset()
    dedges_changed: bool = False
    dedge_labels: frozenset[str] = frozenset()
    uedges_changed: bool = False
    uedge_labels: frozenset[str] = frozenset()
    node_property_keys: frozenset[str] = frozenset()
    edge_property_keys: frozenset[str] = frozenset()
    removed: frozenset[GraphElementId] = frozenset()
    rest: "DeltaSummary | None" = None
    touched: frozenset[NodeId] = frozenset()

    @property
    def is_empty(self) -> bool:
        return not (
            self.nodes_changed
            or self.dedges_changed
            or self.uedges_changed
            or self.node_property_keys
            or self.edge_property_keys
        )

    def describe(self) -> str:
        parts = []
        if self.nodes_changed:
            parts.append(f"nodes{sorted(self.node_labels)}")
        if self.dedges_changed:
            parts.append(f"directed{sorted(self.dedge_labels)}")
        if self.uedges_changed:
            parts.append(f"undirected{sorted(self.uedge_labels)}")
        if self.node_property_keys:
            parts.append(f"node-keys{sorted(self.node_property_keys)}")
        if self.edge_property_keys:
            parts.append(f"edge-keys{sorted(self.edge_property_keys)}")
        return " + ".join(parts) if parts else "(no changes)"


def summarize_deltas(deltas: Sequence[GraphDelta]) -> DeltaSummary:
    """Merge a delta chain into one :class:`DeltaSummary`, with its
    removed ids, touched nodes and its ``rest`` (the chain without
    removals) built in the same pass."""
    # Per element class (node, directed, undirected): [added, removed]
    # labels, and whether any element was added / removed.
    labels: list[tuple[set[str], set[str]]] = [(set(), set()) for _ in range(3)]
    changed = [[False, False] for _ in range(3)]
    removed: set[GraphElementId] = set()
    touched: set[NodeId] = set()
    node_property_keys: set[str] = set()
    edge_property_keys: set[str] = set()

    for delta in deltas:
        for kind, records in enumerate((
            (delta.nodes_added, delta.nodes_removed),
            (delta.dedges_added, delta.dedges_removed),
            (delta.uedges_added, delta.uedges_removed),
        )):
            for side in (0, 1):
                for record in records[side]:
                    changed[kind][side] = True
                    labels[kind][side].update(record.labels)
                    if side:
                        removed.add(record.id)
        touched.update(record.id for record in delta.nodes_added)
        for record in delta.dedges_added:
            touched.update((record.source, record.target))
        for record in delta.uedges_added:
            touched.update(record.endpoints)
        for element, key, *_value in delta.properties_set + delta.properties_removed:
            if isinstance(element, NodeId):
                node_property_keys.add(key)
            else:
                edge_property_keys.add(key)

    def _summary(sides: tuple[int, ...], **extra) -> DeltaSummary:
        flags = [any(changed[kind][side] for side in sides) for kind in range(3)]
        sets = [
            frozenset().union(*(labels[kind][side] for side in sides))
            for kind in range(3)
        ]
        return DeltaSummary(
            nodes_changed=flags[0],
            node_labels=sets[0],
            dedges_changed=flags[1],
            dedge_labels=sets[1],
            uedges_changed=flags[2],
            uedge_labels=sets[2],
            node_property_keys=frozenset(node_property_keys),
            edge_property_keys=frozenset(edge_property_keys),
            touched=frozenset(touched),
            **extra,
        )

    if not removed:
        return _summary((0,))
    return _summary((0, 1), removed=frozenset(removed), rest=_summary((0,)))
