"""Immutable, columnar snapshots of a property graph.

:class:`GraphSnapshot` is a frozen view of a
:class:`~repro.graph.property_graph.PropertyGraph` taken at a specific
:attr:`~GraphSnapshot.version`. Its accessors keep the exact contracts
of the original tuple/dict layout (element-id types, sorted iteration
order, tuple-returning adjacency), but the data lives in a columnar
core (:class:`repro.graph.columns.SnapshotColumns`):

- node/edge ids interned into dense integers, CSR (offsets + column)
  adjacency in ``array`` buffers, interned label sets, per-key
  property columns;
- the public accessors are a **thin view** over that core — they
  rebuild id-typed tuples lazily and memoise them, so the engine, the
  footprint layer, and the cluster code see the same API as before;
- the register-NFA ``shortest`` search and the hash join use the dense
  ids directly (:meth:`dense_start_key` / :meth:`dense_key`), skipping
  the view layer entirely on clean data.

**Derivation** (:meth:`derive`) is copy-on-write at the *overlay*
level: a derived snapshot shares its base's immutable core and layers
small dicts on top — patched adjacency rows, added/removed elements,
replaced property dicts, patched per-label membership tuples. Cost is
proportional to the delta, not the graph, which preserves the >=5x
derive-vs-rebuild bench (``bench_a6_incremental.py``). The overlays
also record which dense rows are *dirty* (adjacency patched) or
*shadowed* (a core id re-added with new labels), so the dense engine
fast paths fall back to the view exactly where the core is stale.

**Said once.** The paper defines labels and properties on the union
``N ∪ E_d ∪ E_u``, and so does this module: what differs between
nodes, directed and undirected edges is a row of the *kind table*
(:class:`_Kind`, with :class:`_Rows` for the three adjacencies), and
each per-kind accessor is a named one-liner over one generic body. The
overlay fields are the *overlay list* (``_OVERLAYS``), the lazy memos
the *memo list* (``_MEMOS``): the slots, the blank constructor,
:meth:`derive`'s copy, pickling and the "any overlay?" test all loop
those lists. These are *the* places to extend: a new overlay field or
memo is one more name in its list — or, when every kind has one, one
more field of the table, which the lists splice in — and a new element
kind is one more table row. Nothing else names a slot.

**Pickling** goes through :meth:`__reduce__`: the core ships as raw
id keys plus ``array.tobytes()`` buffers (one memcpy per column)
instead of a deep object pickle — the payoff for
:class:`~repro.cluster.backends.ProcessBackend` snapshot shipping.

Snapshots are safe to read from many threads concurrently (lazy memos
are idempotent dict fills) and are memoised per graph version by
:meth:`PropertyGraph.snapshot`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Iterator,
    Mapping,
    NamedTuple,
    Sequence,
)

from repro.errors import GraphError, UnknownIdError
from repro.graph.columns import SnapshotColumns, build_columns
from repro.graph.delta import GraphDelta
from repro.graph.ids import (
    DirectedEdgeId,
    EdgeId,
    GraphElementId,
    NodeId,
    UndirectedEdgeId,
)
from repro.obs.counters import active_counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.property_graph import Constant, PropertyGraph

__all__ = ["GraphSnapshot"]

_EMPTY: tuple = ()

# ---------------------------------------------------------------------------
# The kind table, the overlay list and the memo list
# ---------------------------------------------------------------------------


class _Rows(NamedTuple):
    """One of a node's three adjacencies: where its rows live."""

    csr: str  #: which ``SnapshotColumns.csr`` triple holds the core rows
    overlay: str  #: slot, node -> row patched by a derive chain
    memo: str  #: slot, node -> core row rebuilt as an id-typed tuple


_OUT = _Rows(csr="out", overlay="_row_out", memo="_memo_out")
_IN = _Rows(csr="in", overlay="_row_in", memo="_memo_in")
_UND = _Rows(csr="und", overlay="_row_und", memo="_memo_und")
_ROWS = (_OUT, _IN, _UND)


class _Kind(NamedTuple):
    """One element kind: where the core, the overlay, the memos and a
    :class:`GraphDelta` keep what the generic bodies below read."""

    id_type: type
    core_ids: str  #: ``SnapshotColumns`` attribute, the sorted id tuple
    core_count: str  #: ``SnapshotColumns`` attribute, the element count
    core_by_label: str  #: ``SnapshotColumns`` attribute, label int -> ids
    #: Slot, element -> label set, for elements the core does not hold
    #: (or holds stale): the overlay's carrier of this kind.
    ovl_labels: str
    #: Slot, label -> patched sorted member tuple; ``()`` = emptied, so
    #: the core column stays masked.
    ovl_by_label: str
    memo_ids: str  #: slot, the carrier as a sorted tuple (or ``None``)
    memo_by_label: str  #: slot, label -> core members as real ids
    added: str  #: ``GraphDelta`` group of added records
    removed: str  #: ``GraphDelta`` group of removed records
    #: Edges only. Per record field naming the edge's end(s): the slot
    #: that keeps it for an overlay edge, and the adjacency whose row at
    #: that node (at each, for ``endpoints``) lists the edge.
    ends: tuple = ()


_NODE = _Kind(
    id_type=NodeId,
    core_ids="node_ids",
    core_count="n_nodes",
    core_by_label="nodes_by_label",
    ovl_labels="_ovl_node_labels",
    ovl_by_label="_ovl_nodes_by_label",
    memo_ids="_nodes",
    memo_by_label="_memo_nbl",
    added="nodes_added",
    removed="nodes_removed",
)
_DEDGE = _Kind(
    id_type=DirectedEdgeId,
    core_ids="dedge_ids",
    core_count="n_dedges",
    core_by_label="dedges_by_label",
    ovl_labels="_ovl_dedge_labels",
    ovl_by_label="_ovl_dedges_by_label",
    memo_ids="_dedges",
    memo_by_label="_memo_dbl",
    added="dedges_added",
    removed="dedges_removed",
    ends=(("source", "_ovl_src", _OUT), ("target", "_ovl_tgt", _IN)),
)
_UEDGE = _Kind(
    id_type=UndirectedEdgeId,
    core_ids="uedge_ids",
    core_count="n_uedges",
    core_by_label="uedges_by_label",
    ovl_labels="_ovl_uedge_labels",
    ovl_by_label="_ovl_uedges_by_label",
    memo_ids="_uedges",
    memo_by_label="_memo_ubl",
    added="uedges_added",
    removed="uedges_removed",
    ends=(("endpoints", "_ovl_endpoints", _UND),),
)
#: In the order a delta's additions are applied (nodes before edges);
#: removals run it backwards.
_KINDS = (_NODE, _DEDGE, _UEDGE)

#: Overlay sets, empty on a rebuilt snapshot.
_OVERLAY_SETS = (
    # Real ids whose core entry is no longer authoritative. A core id
    # that is removed and later re-added *stays* here: every accessor
    # tests ``_removed`` before the core, and the overlay entry wins.
    "_removed",
    # Dense *node* ids re-added with possibly new labels (their core
    # labelset is stale).
    "_shadow",
    # Dense node ids whose adjacency rows were patched.
    "_dirty",
)
#: Overlay dicts, empty on a rebuilt snapshot: one of their own, the
#: rest named by the tables above.
_OVERLAY_DICTS = (
    # element -> its whole property dict (an empty dict still masks
    # stale core columns).
    "_ovl_props",
    *(kind.ovl_labels for kind in _KINDS),
    *(slot for kind in _KINDS for _, slot, _ in kind.ends),
    *(rows.overlay for rows in _ROWS),
    *(kind.ovl_by_label for kind in _KINDS),
)
#: Every copy-on-write overlay field, in pickle order.
_OVERLAYS = _OVERLAY_SETS + _OVERLAY_DICTS

#: Lazy memos holding one value (``None`` until computed).
_MEMO_VALUES = (
    "_memo_all_labels",
    "_label_cards",
    *(kind.memo_ids for kind in _KINDS),
)
#: Lazy memos filled key by key.
_MEMO_DICTS = (
    "_memo_endpoints",
    "_mask_cache",
    *(kind.memo_by_label for kind in _KINDS),
    *(rows.memo for rows in _ROWS),
)
#: Every lazy memo: never pickled, never copied, rebuilt on demand.
_MEMOS = _MEMO_VALUES + _MEMO_DICTS


# ---------------------------------------------------------------------------
# Incremental-derivation helpers
# ---------------------------------------------------------------------------


def _tuple_insert(items: tuple, item) -> tuple:
    """Insert into a sorted tuple (O(log n) compares + one slice copy)."""
    index = bisect_left(items, item)
    return items[:index] + (item,) + items[index:]


def _tuple_discard(items: tuple, item) -> tuple:
    """Remove from a sorted tuple if present (bisect, no re-sort)."""
    index = bisect_left(items, item)
    if index < len(items) and items[index] == item:
        return items[:index] + items[index + 1 :]
    return items


def _tuple_patch(items: tuple, removed, added) -> tuple:
    """A sorted tuple minus ``removed`` (those present) plus ``added``."""
    out = list(items)
    for item in removed:
        index = bisect_left(out, item)
        if index < len(out) and out[index] == item:
            del out[index]
    for item in added:
        insort(out, item)
    return tuple(out)


def _end_nodes(end) -> tuple:
    """The nodes named by one ``_Kind.ends`` field of an edge record:
    ``source`` / ``target`` are a node, ``endpoints`` is the set of
    both (of one, for a self-loop — hence one row patch)."""
    return (end,) if type(end) is NodeId else tuple(end)


class _NetChange:
    """Net membership change of one sorted collection across a chain.

    Re-adding an element the chain removed (or removing one it added)
    cancels out, so big membership tuples are patched once with the
    *net* effect instead of once per operation.
    """

    __slots__ = ("added", "removed")

    def __init__(self) -> None:
        self.added: set = set()
        self.removed: set = set()

    def add(self, item) -> None:
        if item in self.removed:
            self.removed.discard(item)
        else:
            self.added.add(item)

    def remove(self, item) -> None:
        if item in self.added:
            self.added.discard(item)
        else:
            self.removed.add(item)

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


class GraphSnapshot:
    """A read-only, fully indexed copy of one graph version.

    Construct via :meth:`PropertyGraph.snapshot` (memoised per version)
    rather than directly; direct construction always re-copies.
    """

    __slots__ = (
        "version",
        "derived",
        "_core",
        *_OVERLAYS,
        *_MEMOS,
        # Metadata / observability.
        "overlay_ops",
        "build_s",
        "csr_rows_patched",
    )

    if TYPE_CHECKING:
        # The overlay and memo slots are filled by name from the lists
        # above, not by assignments a type checker can see.
        def __getattr__(self, name: str) -> Any: ...

    def __init__(self, graph: "PropertyGraph") -> None:
        started = perf_counter()
        self._blank(build_columns(graph), graph.version)
        self.build_s = perf_counter() - started

    def _blank(
        self, core: SnapshotColumns, version: int, overlays=None
    ) -> None:
        """Fill every slot: ``core`` at ``version`` under ``overlays``
        (one value per name of ``_OVERLAYS``, in that order; empty ones
        by default — a rebuilt snapshot) and fresh memos."""
        self.version = version
        #: Whether this snapshot was produced by :meth:`derive` rather
        #: than a full rebuild (observability; no behavioural impact).
        self.derived = False
        self._core = core
        if overlays is None:
            overlays = [set() for _ in _OVERLAY_SETS]
            overlays += [{} for _ in _OVERLAY_DICTS]
        for name, value in zip(_OVERLAYS, overlays):
            setattr(self, name, value)
        for name in _MEMO_VALUES:
            setattr(self, name, None)
        for name in _MEMO_DICTS:
            setattr(self, name, {})
        #: Accumulated delta operations layered over the core. Grows
        #: along derive chains; :meth:`PropertyGraph.snapshot` uses it
        #: to fall back to a full rebuild (fresh core, empty overlays)
        #: once the overlays stop being "small".
        self.overlay_ops = 0
        #: Seconds spent interning/building the CSR core (or patching
        #: overlays when derived) — aggregated into ``ServiceStats``.
        self.build_s = 0.0
        #: Adjacency rows rewritten copy-on-write by :meth:`derive`
        #: (0 for a full rebuild).
        self.csr_rows_patched = 0

    # ------------------------------------------------------------------
    # Incremental derivation
    # ------------------------------------------------------------------

    @classmethod
    def derive(
        cls, base: "GraphSnapshot", deltas: Sequence[GraphDelta]
    ) -> "GraphSnapshot":
        """Patch ``base`` with a contiguous delta chain.

        Returns a snapshot semantically identical to a full rebuild at
        the chain's final version, but built by sharing ``base``'s
        immutable columnar core and copying only the (small) overlay
        dicts. Adjacency rows touched by the chain are rewritten as
        id-typed tuples in the row overlay; everything else stays in
        the CSR columns. Cost is ``O(|delta| + |overlay|)`` rather than
        the rebuild's ``O(n log n)`` — the win the mutation path needs.

        The chain must start at ``base.version + 1`` and be
        consecutive; anything else raises :class:`GraphError` (callers
        fall back to a rebuild).
        """
        if not deltas:
            return base
        started = perf_counter()
        expected = base.version
        for delta in deltas:
            expected += 1
            if delta.version != expected:
                raise GraphError(
                    f"delta chain is not contiguous from version "
                    f"{base.version}: expected {expected}, "
                    f"got {delta.version}"
                )

        core = base._core
        dense = core.dense
        n_nodes = core.n_nodes
        # The new snapshot owns a copy of each of the base's overlay
        # containers and the chain is applied to those, in place: the
        # base is never written to.
        snap = object.__new__(cls)
        snap._blank(
            core, expected, [getattr(base, name).copy() for name in _OVERLAYS]
        )
        snap.derived = True
        snap.overlay_ops = base.overlay_ops + sum(
            delta.size for delta in deltas
        )
        removed = snap._removed
        dirty = snap._dirty
        props = snap._ovl_props
        rows_patched = 0
        #: Per kind: its label overlay on ``snap`` and, label by label,
        #: the net membership change over the whole chain.
        per_kind = [
            (kind, getattr(snap, kind.ovl_labels), defaultdict(_NetChange))
            for kind in _KINDS
        ]

        def patch_row(rows: _Rows, node, edit, edge) -> None:
            """Rewrite ``node``'s row copy-on-write: ``edit`` inserts
            or discards ``edge`` in its current sorted tuple."""
            nonlocal rows_patched
            overlay = getattr(snap, rows.overlay)
            row = overlay.get(node)
            if row is None:
                row = base._row(rows, node)
            overlay[node] = edit(row, edge)
            rows_patched += 1
            d = dense.get(node)
            if d is not None and d < n_nodes:
                dirty.add(d)

        for delta in deltas:
            # Removals first (edge before node: a cascade's adjacency
            # entries must be empty before its node entry is dropped),
            # then additions (node before edge), then property edits —
            # the same order the mutable graph applied them in.
            for kind, labels_of, nets in reversed(per_kind):
                for record in getattr(delta, kind.removed):
                    element = record.id
                    # An overlay element goes; a core one is masked. Its
                    # label set may be the empty frozenset, so test the
                    # pop against ``None``, not for truth.
                    if labels_of.pop(element, None) is None:
                        removed.add(element)
                    props.pop(element, None)
                    for field, slot, rows in kind.ends:
                        getattr(snap, slot).pop(element, None)
                        for node in _end_nodes(getattr(record, field)):
                            patch_row(rows, node, _tuple_discard, element)
                    if kind is _NODE:
                        for rows in _ROWS:
                            getattr(snap, rows.overlay).pop(element, None)
                    for label in record.labels:
                        nets[label].remove(element)
            for kind, labels_of, nets in per_kind:
                for record in getattr(delta, kind.added):
                    element = record.id
                    labels_of[element] = record.labels
                    props[element] = dict(record.properties)
                    for field, slot, rows in kind.ends:
                        end = getattr(record, field)
                        getattr(snap, slot)[element] = end
                        for node in _end_nodes(end):
                            patch_row(rows, node, _tuple_insert, element)
                    if kind is _NODE:
                        for rows in _ROWS:
                            getattr(snap, rows.overlay)[element] = _EMPTY
                        d = dense.get(element)
                        if d is not None:
                            # Re-added core id: its core labelset/rows
                            # are stale, so the dense fast paths must
                            # treat it as an overlay element from now on.
                            snap._shadow.add(d)
                            dirty.add(d)
                    for label in record.labels:
                        nets[label].add(element)
            # ``properties`` hands out a private copy of the element's
            # current map, which becomes its whole overlay entry.
            for element, key, value in delta.properties_set:
                entry = snap.properties(element)
                entry[key] = value
                props[element] = entry
            for element, key in delta.properties_removed:
                entry = snap.properties(element)
                entry.pop(key, None)
                # An empty dict entry still masks stale core columns.
                props[element] = entry

        # Per-label membership overlays: patch the base's *current*
        # members with the chain's net change. A label emptied by the
        # chain keeps a ``()`` sentinel so core columns stay masked —
        # ``all_labels`` skips sentinels, so no ghost labels survive.
        for kind, _, nets in per_kind:
            by_label = getattr(snap, kind.ovl_by_label)
            for label, net in nets.items():
                if net:
                    by_label[label] = _tuple_patch(
                        base._members(kind, label), net.removed, net.added
                    )

        snap.csr_rows_patched = rows_patched
        snap.build_s = perf_counter() - started
        return snap

    # ------------------------------------------------------------------
    # Buffer pickling (ProcessBackend snapshot shipping)
    # ------------------------------------------------------------------

    def __reduce__(self):
        overlay = tuple(getattr(self, name) for name in _OVERLAYS)
        return (
            _rebuild_snapshot,
            (
                self.version,
                self.derived,
                self._core.payload(),
                overlay if any(overlay) else None,
                self.overlay_ops,
                self.csr_rows_patched,
            ),
        )

    # ------------------------------------------------------------------
    # Dense-id fast-path hooks (engine-facing)
    # ------------------------------------------------------------------

    def dense_key(self, element: GraphElementId):
        """A hash/equality-stable compact key for ``element``.

        Returns the interned dense int when the element is in the core
        and not shadowed, else the element itself. Deterministic per
        snapshot — equal elements always map to equal keys — which is
        all the hash join and the register search need.
        """
        d = self._core.dense.get(element)
        if d is None or (self._shadow and d in self._shadow):
            return element
        return d

    def dense_start_key(self, node: NodeId):
        """Like :meth:`dense_key` but only for *valid current nodes*
        (register-search seeds come from the carriers)."""
        core = self._core
        d = core.dense.get(node)
        if (
            d is None
            or d >= core.n_nodes
            or (self._shadow and d in self._shadow)
            or (self._removed and node in self._removed)
        ):
            return node
        return d

    def label_mask(self, label: str) -> bytes:
        """Dense-id bitmask of core label membership for ``label``.

        Valid for any *non-shadowed* dense id: label edits always force
        the element into the shadow/overlay path, so the core mask is
        never stale for the nodes the ``shortest`` program probes
        (clean core nodes; the rest go through the accessors). Unknown
        labels yield the cached all-zero mask.
        """
        core = self._core
        return core.label_mask(core.label_index.get(label, -1))

    def property_mask(self, key: str, const) -> bytes:
        """Dense-id bitmask of ``element.key = const`` *at this version*.

        The base mask comes from the shared immutable core
        (:meth:`SnapshotColumns.prop_mask`); snapshots with property
        overlays or removals patch a private copy — set the bit iff the
        overlaid value is defined and equal, clear it for removed
        elements — and cache it in ``_mask_cache`` unless it is all
        zero. The cache is per-snapshot (a memo: fresh on
        derive/unpickle), so a delta chain can never see a stale mask.
        Mirrors :meth:`get_property`'s ``_ovl_props``-first resolution
        exactly.
        """
        cache = self._mask_cache
        cache_key = (key, const)
        mask = cache.get(cache_key)
        if mask is None:
            mask = self._core.prop_mask(key, const)
            ovl = self._ovl_props
            removed = self._removed
            if ovl or removed:
                buf = bytearray(mask)
                dense = self._core.dense
                for element, props in ovl.items():
                    d = dense.get(element)
                    if d is None:
                        continue
                    value = props.get(key)
                    if value is not None and value == const:
                        buf[d >> 3] |= 1 << (d & 7)
                    else:
                        buf[d >> 3] &= 0xFF ^ (1 << (d & 7))
                for element in removed:
                    d = dense.get(element)
                    if d is not None:
                        buf[d >> 3] &= 0xFF ^ (1 << (d & 7))
                if not any(buf):
                    return self._core.label_mask(-1)
                mask = cache[cache_key] = bytes(buf)
                counters = active_counters()
                if counters is not None:
                    counters.masks_built += 1
        return mask

    # ------------------------------------------------------------------
    # Formal accessors (same contracts as PropertyGraph)
    # ------------------------------------------------------------------

    def _overlay_labels(self, element) -> "frozenset[str] | None":
        """The label set of an overlay element of any kind, else
        ``None`` (an element may carry the *empty* label set)."""
        for kind in _KINDS:
            table = getattr(self, kind.ovl_labels)
            if table and element in table:
                return table[element]
        return None

    def labels(self, element: GraphElementId) -> frozenset[str]:
        core = self._core
        d = core.dense.get(element)
        if d is not None and not (self._removed and element in self._removed):
            return core.labelsets[core.labelset_of[d]]
        labels = self._overlay_labels(element)
        if labels is None:
            raise UnknownIdError(f"unknown element {element!r}")
        return labels

    def _end(self, edge: DirectedEdgeId, col, overlay: dict) -> NodeId:
        """One end of a directed edge: its entry in the core endpoint
        column ``col``, or in ``overlay`` when the core does not hold
        the edge (any more)."""
        core = self._core
        d = core.dense.get(edge)
        if d is not None and not (self._removed and edge in self._removed):
            n = core.n_nodes
            if n <= d < n + core.n_dedges:
                return core.elements[col[d - n]]
        elif overlay and edge in overlay:
            return overlay[edge]
        raise UnknownIdError(f"unknown directed edge {edge!r}")

    def source(self, edge: DirectedEdgeId) -> NodeId:
        return self._end(edge, self._core.src_col, self._ovl_src)

    def target(self, edge: DirectedEdgeId) -> NodeId:
        return self._end(edge, self._core.tgt_col, self._ovl_tgt)

    def endpoints(self, edge: UndirectedEdgeId) -> frozenset[NodeId]:
        core = self._core
        d = core.dense.get(edge)
        if d is not None and not (self._removed and edge in self._removed):
            first = core.n_nodes + core.n_dedges
            if d < first:
                raise UnknownIdError(f"unknown undirected edge {edge!r}")
            memo = self._memo_endpoints
            ends = memo.get(edge)
            if ends is None:
                j = d - first
                elements = core.elements
                ends = memo[edge] = frozenset(
                    (elements[core.ua_col[j]], elements[core.ub_col[j]])
                )
            return ends
        ovl = self._ovl_endpoints
        if ovl and edge in ovl:
            return ovl[edge]
        raise UnknownIdError(f"unknown undirected edge {edge!r}")

    def get_property(self, element: GraphElementId, key: str) -> "Constant | None":
        ovl = self._ovl_props
        if ovl and element in ovl:
            return ovl[element].get(key)
        core = self._core
        d = core.dense.get(element)
        if d is not None and not (self._removed and element in self._removed):
            col = core.prop_cols.get(key)
            return col.get(d) if col is not None else None
        if self._overlay_labels(element) is not None:
            return None
        raise UnknownIdError(f"unknown element {element!r}")

    def has_property(self, element: GraphElementId, key: str) -> bool:
        return self.get_property(element, key) is not None

    def properties(self, element: GraphElementId) -> Mapping[str, "Constant"]:
        ovl = self._ovl_props
        if ovl and element in ovl:
            return dict(ovl[element])
        core = self._core
        d = core.dense.get(element)
        if d is not None and not (self._removed and element in self._removed):
            return {
                key: col[d]
                for key, col in core.prop_cols.items()
                if d in col
            }
        if self._overlay_labels(element) is not None:
            return {}
        raise UnknownIdError(f"unknown element {element!r}")

    # ------------------------------------------------------------------
    # Carrier sets and counting
    # ------------------------------------------------------------------

    def _ids(self, kind: _Kind) -> tuple:
        """The carrier of one kind as a sorted tuple, memoised: the
        core's ids minus the removed ones plus the overlay's."""
        out = getattr(self, kind.memo_ids)
        if out is None:
            out = getattr(self._core, kind.core_ids)
            removed = self._removed
            overlay = getattr(self, kind.ovl_labels)
            if removed or overlay:
                id_type = kind.id_type
                out = _tuple_patch(
                    out, (x for x in removed if type(x) is id_type), overlay
                )
            setattr(self, kind.memo_ids, out)
        return out

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """The node set ``N`` as a sorted tuple."""
        return self._ids(_NODE)

    @property
    def directed_edges(self) -> tuple[DirectedEdgeId, ...]:
        return self._ids(_DEDGE)

    @property
    def undirected_edges(self) -> tuple[UndirectedEdgeId, ...]:
        return self._ids(_UEDGE)

    def _count(self, kind: _Kind) -> int:
        cached = getattr(self, kind.memo_ids)
        if cached is not None:
            return len(cached)
        count = getattr(self._core, kind.core_count)
        if self._removed:
            id_type = kind.id_type
            count -= sum(1 for x in self._removed if type(x) is id_type)
        return count + len(getattr(self, kind.ovl_labels))

    @property
    def num_nodes(self) -> int:
        return self._count(_NODE)

    @property
    def num_directed_edges(self) -> int:
        return self._count(_DEDGE)

    @property
    def num_undirected_edges(self) -> int:
        return self._count(_UEDGE)

    @property
    def num_edges(self) -> int:
        return self.num_directed_edges + self.num_undirected_edges

    def iter_nodes(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def iter_directed_edges(self) -> Iterator[DirectedEdgeId]:
        return iter(self.directed_edges)

    def iter_undirected_edges(self) -> Iterator[UndirectedEdgeId]:
        return iter(self.undirected_edges)

    # ------------------------------------------------------------------
    # Label indexes (O(1) lookups, unlike the mutable graph's scans)
    # ------------------------------------------------------------------

    def _core_members(self, kind: _Kind, label: str):
        """The core's dense-id column of ``label`` (``()`` if none)."""
        core = self._core
        li = core.label_index.get(label)
        if li is None:
            return _EMPTY
        return getattr(core, kind.core_by_label).get(li, _EMPTY)

    def _members(self, kind: _Kind, label: str) -> tuple:
        """Sorted ids of one kind carrying ``label``. A label the
        overlay names is the overlay's to decide (``()`` = emptied);
        any other is the core column, rebuilt as ids once."""
        ovl = getattr(self, kind.ovl_by_label)
        if ovl:
            hit = ovl.get(label)
            if hit is not None:
                return hit
        memo = getattr(self, kind.memo_by_label)
        hit = memo.get(label)
        if hit is None:
            elements = self._core.elements
            hit = memo[label] = tuple(
                elements[d] for d in self._core_members(kind, label)
            )
        return hit

    def nodes_with_label(self, label: str) -> tuple[NodeId, ...]:
        return self._members(_NODE, label)

    def directed_edges_with_label(self, label: str) -> tuple[DirectedEdgeId, ...]:
        return self._members(_DEDGE, label)

    def undirected_edges_with_label(
        self, label: str
    ) -> tuple[UndirectedEdgeId, ...]:
        return self._members(_UEDGE, label)

    def _label_counts(self, kind: _Kind) -> dict[str, int]:
        """Label -> number of live members of one kind, zero-free."""
        names = self._core.label_names
        overlay = getattr(self, kind.ovl_by_label)
        counts: dict[str, int] = {}
        for li, arr in getattr(self._core, kind.core_by_label).items():
            name = names[li]
            # A label the overlay names is the overlay's to decide (it
            # may have been emptied).
            if arr and name not in overlay:
                counts[name] = len(arr)
        for name, members in overlay.items():
            if members:
                counts[name] = len(members)
        return counts

    def all_labels(self) -> frozenset[str]:
        out = self._memo_all_labels
        if out is None:
            out = self._memo_all_labels = frozenset().union(
                *(self._label_counts(kind) for kind in _KINDS)
            )
        return out

    # ------------------------------------------------------------------
    # Per-label cardinalities (consumed by the query planner)
    # ------------------------------------------------------------------

    def _num_members(self, kind: _Kind, label: str) -> int:
        ovl = getattr(self, kind.ovl_by_label)
        if ovl:
            hit = ovl.get(label)
            if hit is not None:
                return len(hit)
        return len(self._core_members(kind, label))

    def num_nodes_with_label(self, label: str) -> int:
        return self._num_members(_NODE, label)

    def num_directed_edges_with_label(self, label: str) -> int:
        return self._num_members(_DEDGE, label)

    def label_cardinalities(self):
        """The snapshot's per-label count summary, built once.

        Returns a :class:`repro.graph.statistics.LabelCardinalities`;
        snapshots are immutable, so the summary is cached for the
        snapshot's lifetime — a derived snapshot computes its own, from
        scratch, like a rebuilt one.
        """
        if self._label_cards is None:
            from repro.graph.statistics import LabelCardinalities

            nodes, dedges, uedges = (
                self._label_counts(kind) for kind in _KINDS
            )
            self._label_cards = LabelCardinalities(
                num_nodes=self.num_nodes,
                num_directed_edges=self.num_directed_edges,
                num_undirected_edges=self.num_undirected_edges,
                node_counts=nodes,
                directed_edge_counts=dedges,
                undirected_edge_counts=uedges,
            )
        return self._label_cards

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def _core_node_dense(self, node: NodeId) -> int:
        core = self._core
        d = core.dense.get(node)
        if (
            d is None
            or d >= core.n_nodes
            or (self._removed and node in self._removed)
        ):
            raise UnknownIdError(f"unknown node {node!r}")
        return d

    def _row(self, rows: _Rows, node: NodeId) -> tuple:
        """One adjacency row of ``node`` as a sorted id-typed tuple:
        the patched row if a derive chain touched it, else the core's
        CSR row, rebuilt as ids once."""
        ovl = getattr(self, rows.overlay)
        if ovl:
            hit = ovl.get(node)
            if hit is not None:
                return hit
        memo = getattr(self, rows.memo)
        hit = memo.get(node)
        if hit is None:
            core = self._core
            d = self._core_node_dense(node)
            off, col, _ = core.csr(rows.csr)
            elements = core.elements
            hit = memo[node] = tuple(
                elements[col[i]] for i in range(off[d], off[d + 1])
            )
        return hit

    def out_edges(self, node: NodeId) -> tuple[DirectedEdgeId, ...]:
        return self._row(_OUT, node)

    def in_edges(self, node: NodeId) -> tuple[DirectedEdgeId, ...]:
        return self._row(_IN, node)

    def undirected_edges_at(self, node: NodeId) -> tuple[UndirectedEdgeId, ...]:
        return self._row(_UND, node)

    def num_edges_at(self, node: NodeId) -> int:
        """Total incident edge count via CSR offset subtraction.

        No adjacency tuples are materialised on the fast path, which
        is what the cluster partitioner's LPT balancing wants.
        """
        core = self._core
        d = core.dense.get(node)
        if (
            d is not None
            and d < core.n_nodes
            and not (self._dirty and d in self._dirty)
            and not (self._removed and node in self._removed)
        ):
            offsets = (core.csr(rows.csr)[0] for rows in _ROWS)
            return sum(off[d + 1] - off[d] for off in offsets)
        return sum(len(self._row(rows, node)) for rows in _ROWS)

    def degree(self, node: NodeId) -> int:
        return self.num_edges_at(node)

    def neighbours(self, node: NodeId) -> frozenset[NodeId]:
        out: set[NodeId] = set()
        for edge in self.out_edges(node):
            out.add(self.target(edge))
        for edge in self.in_edges(node):
            out.add(self.source(edge))
        for edge in self.undirected_edges_at(node):
            out.add(self.other_endpoint(edge, node))
        return frozenset(out)

    def other_endpoint(self, edge: UndirectedEdgeId, node: NodeId) -> NodeId:
        ends = self.endpoints(edge)
        if node not in ends:
            raise GraphError(f"{node!r} is not an endpoint of {edge!r}")
        if len(ends) == 1:
            return node
        (other,) = ends - {node}
        return other

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _has(self, kind: _Kind, element) -> bool:
        """Whether ``element`` is a current element of ``kind``: a core
        id of that sort (the three dense ranges are one per id type)
        that is not removed, or an overlay element."""
        if (
            element in self._core.dense
            and type(element) is kind.id_type
            and not (self._removed and element in self._removed)
        ):
            return True
        overlay = getattr(self, kind.ovl_labels)
        return bool(overlay) and element in overlay

    def has_node(self, node: NodeId) -> bool:
        return self._has(_NODE, node)

    def has_edge(self, edge: EdgeId) -> bool:
        return self._has(_DEDGE, edge) or self._has(_UEDGE, edge)

    def has_directed_edge(self, edge: DirectedEdgeId) -> bool:
        return self._has(_DEDGE, edge)

    def has_undirected_edge(self, edge: UndirectedEdgeId) -> bool:
        return self._has(_UEDGE, edge)

    def has_element(self, element: GraphElementId) -> bool:
        return any(self._has(kind, element) for kind in _KINDS)

    def snapshot(self) -> "GraphSnapshot":
        """A snapshot of a snapshot is itself (already immutable)."""
        return self

    def __contains__(self, element: object) -> bool:
        try:
            return self.has_element(element)  # type: ignore[arg-type]
        except TypeError:
            # Unhashable probes are "not an element"; anything else
            # (deadline/limit errors included) must propagate.
            return False

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        return (
            f"GraphSnapshot(version={self.version}, nodes={self.num_nodes}, "
            f"directed_edges={self.num_directed_edges}, "
            f"undirected_edges={self.num_undirected_edges})"
        )


def _rebuild_snapshot(
    version: int,
    derived: bool,
    core_payload: tuple,
    overlay: "tuple | None",
    overlay_ops: int,
    rows_patched: int,
) -> GraphSnapshot:
    """Unpickle hook: reassemble a snapshot from buffer columns and the
    overlay values (in ``_OVERLAYS`` order; ``None`` when all empty)."""
    snap = object.__new__(GraphSnapshot)
    snap._blank(SnapshotColumns.from_payload(core_payload), version, overlay)
    snap.derived = derived
    snap.overlay_ops = overlay_ops
    snap.csr_rows_patched = rows_patched
    return snap
