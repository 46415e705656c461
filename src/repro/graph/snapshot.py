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
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

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
_EMPTY_SET: frozenset = frozenset()


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

    def patch(self, items: tuple) -> tuple:
        """Apply this net change to a sorted tuple."""
        out = list(items)
        for item in sorted(self.removed, reverse=True):
            index = bisect_left(out, item)
            if index < len(out) and out[index] == item:
                del out[index]
        for item in self.added:
            insort(out, item)
        return tuple(out)


def _net(nets: dict, label: str) -> _NetChange:
    net = nets.get(label)
    if net is None:
        net = nets[label] = _NetChange()
    return net


class GraphSnapshot:
    """A read-only, fully indexed copy of one graph version.

    Construct via :meth:`PropertyGraph.snapshot` (memoised per version)
    rather than directly; direct construction always re-copies.
    """

    __slots__ = (
        "version",
        "derived",
        "_core",
        # Overlays — all empty on a rebuilt snapshot. ``_removed``
        # holds real ids whose core entry is no longer authoritative;
        # ``_shadow`` holds dense *node* ids re-added with possibly new
        # labels (their core labelset is stale); ``_dirty`` holds dense
        # node ids whose adjacency rows were patched.
        "_removed",
        "_shadow",
        "_dirty",
        "_ovl_node_labels",
        "_ovl_dedge_labels",
        "_ovl_uedge_labels",
        "_ovl_src",
        "_ovl_tgt",
        "_ovl_endpoints",
        "_ovl_props",
        "_row_out",
        "_row_in",
        "_row_und",
        "_ovl_nodes_by_label",
        "_ovl_dedges_by_label",
        "_ovl_uedges_by_label",
        # Lazy memos (never pickled; rebuilt on demand).
        "_nodes",
        "_dedges",
        "_uedges",
        "_memo_out",
        "_memo_in",
        "_memo_und",
        "_memo_nbl",
        "_memo_dbl",
        "_memo_ubl",
        "_memo_endpoints",
        "_memo_all_labels",
        "_label_cards",
        "_mask_cache",
        # Metadata / observability.
        "_overlay_ops",
        "build_s",
        "csr_rows_patched",
    )

    def __init__(self, graph: "PropertyGraph") -> None:
        started = perf_counter()
        self.version = graph.version
        #: Whether this snapshot was produced by :meth:`derive` rather
        #: than a full rebuild (observability; no behavioural impact).
        self.derived = False
        self._core = build_columns(graph)
        self._removed = _EMPTY_SET
        self._shadow = _EMPTY_SET
        self._dirty = _EMPTY_SET
        self._ovl_node_labels = {}
        self._ovl_dedge_labels = {}
        self._ovl_uedge_labels = {}
        self._ovl_src = {}
        self._ovl_tgt = {}
        self._ovl_endpoints = {}
        self._ovl_props = {}
        self._row_out = {}
        self._row_in = {}
        self._row_und = {}
        self._ovl_nodes_by_label = {}
        self._ovl_dedges_by_label = {}
        self._ovl_uedges_by_label = {}
        self._init_memos()
        self._overlay_ops = 0
        #: Seconds spent interning/building the CSR core (or patching
        #: overlays when derived) — aggregated into ``ServiceStats``.
        self.build_s = perf_counter() - started
        #: Adjacency rows rewritten copy-on-write by :meth:`derive`
        #: (0 for a full rebuild).
        self.csr_rows_patched = 0

    def _init_memos(self) -> None:
        self._nodes = None
        self._dedges = None
        self._uedges = None
        self._memo_out = {}
        self._memo_in = {}
        self._memo_und = {}
        self._memo_nbl = {}
        self._memo_dbl = {}
        self._memo_ubl = {}
        self._memo_endpoints = {}
        self._memo_all_labels = None
        self._label_cards = None
        self._mask_cache = {}

    @property
    def overlay_ops(self) -> int:
        """Accumulated delta operations layered over the core.

        Grows along derive chains; :meth:`PropertyGraph.snapshot` uses
        it to fall back to a full rebuild (fresh core, empty overlays)
        once the overlays stop being "small"."""
        return self._overlay_ops

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
        removed = set(base._removed)
        shadow = set(base._shadow)
        dirty = set(base._dirty)
        ovl_nl = dict(base._ovl_node_labels)
        ovl_dl = dict(base._ovl_dedge_labels)
        ovl_ul = dict(base._ovl_uedge_labels)
        ovl_src = dict(base._ovl_src)
        ovl_tgt = dict(base._ovl_tgt)
        ovl_end = dict(base._ovl_endpoints)
        ovl_props = dict(base._ovl_props)
        row_out = dict(base._row_out)
        row_in = dict(base._row_in)
        row_und = dict(base._row_und)
        rows_patched = 0
        ops = 0

        node_label_nets: dict[str, _NetChange] = {}
        dedge_label_nets: dict[str, _NetChange] = {}
        uedge_label_nets: dict[str, _NetChange] = {}

        def current_row(rows: dict, node, accessor) -> tuple:
            row = rows.get(node)
            return row if row is not None else accessor(node)

        def patch_row(rows: dict, node, new_row: tuple) -> None:
            nonlocal rows_patched
            rows[node] = new_row
            rows_patched += 1
            d = dense.get(node)
            if d is not None and d < n_nodes:
                dirty.add(d)

        def current_props(element) -> dict:
            entry = ovl_props.get(element)
            if entry is not None:
                return dict(entry)
            d = dense.get(element)
            if d is None:
                return {}
            return {
                key: col[d]
                for key, col in core.prop_cols.items()
                if d in col
            }

        for delta in deltas:
            ops += delta.size
            # Removals first (edge before node: a cascade's adjacency
            # entries must be empty before its node entry is dropped),
            # then additions (node before edge), then property edits —
            # the same order the mutable graph applied them in.
            for record in delta.dedges_removed:
                edge = record.id
                if ovl_dl.pop(edge, None) is not None:
                    ovl_src.pop(edge, None)
                    ovl_tgt.pop(edge, None)
                else:
                    removed.add(edge)
                ovl_props.pop(edge, None)
                patch_row(
                    row_out,
                    record.source,
                    _tuple_discard(
                        current_row(row_out, record.source, base.out_edges),
                        edge,
                    ),
                )
                patch_row(
                    row_in,
                    record.target,
                    _tuple_discard(
                        current_row(row_in, record.target, base.in_edges),
                        edge,
                    ),
                )
                for label in record.labels:
                    _net(dedge_label_nets, label).remove(edge)
            for record in delta.uedges_removed:
                edge = record.id
                if ovl_ul.pop(edge, None) is not None:
                    ovl_end.pop(edge, None)
                else:
                    removed.add(edge)
                ovl_props.pop(edge, None)
                for endpoint in record.endpoints:
                    patch_row(
                        row_und,
                        endpoint,
                        _tuple_discard(
                            current_row(
                                row_und, endpoint, base.undirected_edges_at
                            ),
                            edge,
                        ),
                    )
                for label in record.labels:
                    _net(uedge_label_nets, label).remove(edge)
            for record in delta.nodes_removed:
                node = record.id
                if ovl_nl.pop(node, None) is None:
                    removed.add(node)
                ovl_props.pop(node, None)
                row_out.pop(node, None)
                row_in.pop(node, None)
                row_und.pop(node, None)
                for label in record.labels:
                    _net(node_label_nets, label).remove(node)
            for record in delta.nodes_added:
                node = record.id
                ovl_nl[node] = record.labels
                ovl_props[node] = dict(record.properties)
                row_out[node] = _EMPTY
                row_in[node] = _EMPTY
                row_und[node] = _EMPTY
                d = dense.get(node)
                if d is not None:
                    # Re-added core id: its core labelset/rows are
                    # stale, so the dense fast paths must treat it as
                    # an overlay element from now on.
                    shadow.add(d)
                    dirty.add(d)
                for label in record.labels:
                    _net(node_label_nets, label).add(node)
            for record in delta.dedges_added:
                edge = record.id
                ovl_dl[edge] = record.labels
                ovl_src[edge] = record.source
                ovl_tgt[edge] = record.target
                ovl_props[edge] = dict(record.properties)
                patch_row(
                    row_out,
                    record.source,
                    _tuple_insert(
                        current_row(row_out, record.source, base.out_edges),
                        edge,
                    ),
                )
                patch_row(
                    row_in,
                    record.target,
                    _tuple_insert(
                        current_row(row_in, record.target, base.in_edges),
                        edge,
                    ),
                )
                for label in record.labels:
                    _net(dedge_label_nets, label).add(edge)
            for record in delta.uedges_added:
                edge = record.id
                ovl_ul[edge] = record.labels
                ovl_end[edge] = record.endpoints
                ovl_props[edge] = dict(record.properties)
                for endpoint in record.endpoints:
                    patch_row(
                        row_und,
                        endpoint,
                        _tuple_insert(
                            current_row(
                                row_und, endpoint, base.undirected_edges_at
                            ),
                            edge,
                        ),
                    )
                for label in record.labels:
                    _net(uedge_label_nets, label).add(edge)
            for element, key, value in delta.properties_set:
                entry = current_props(element)
                entry[key] = value
                ovl_props[element] = entry
            for element, key in delta.properties_removed:
                entry = current_props(element)
                entry.pop(key, None)
                # An empty dict entry still masks stale core columns.
                ovl_props[element] = entry

        # Per-label membership overlays: patch the base's *current*
        # members with the chain's net change. A label emptied by the
        # chain keeps a ``()`` sentinel so core columns stay masked —
        # ``all_labels`` skips sentinels, so no ghost labels survive.
        ovl_bl_n = dict(base._ovl_nodes_by_label)
        ovl_bl_d = dict(base._ovl_dedges_by_label)
        ovl_bl_u = dict(base._ovl_uedges_by_label)
        for overlay, nets, accessor in (
            (ovl_bl_n, node_label_nets, base.nodes_with_label),
            (ovl_bl_d, dedge_label_nets, base.directed_edges_with_label),
            (ovl_bl_u, uedge_label_nets, base.undirected_edges_with_label),
        ):
            for label, net in nets.items():
                if not net:
                    continue
                current = overlay.get(label)
                if current is None:
                    current = accessor(label)
                overlay[label] = net.patch(current)

        snap = object.__new__(cls)
        snap.version = expected
        snap.derived = True
        snap._core = core
        snap._removed = removed
        snap._shadow = shadow
        snap._dirty = dirty
        snap._ovl_node_labels = ovl_nl
        snap._ovl_dedge_labels = ovl_dl
        snap._ovl_uedge_labels = ovl_ul
        snap._ovl_src = ovl_src
        snap._ovl_tgt = ovl_tgt
        snap._ovl_endpoints = ovl_end
        snap._ovl_props = ovl_props
        snap._row_out = row_out
        snap._row_in = row_in
        snap._row_und = row_und
        snap._ovl_nodes_by_label = ovl_bl_n
        snap._ovl_dedges_by_label = ovl_bl_d
        snap._ovl_uedges_by_label = ovl_bl_u
        snap._init_memos()
        snap._overlay_ops = base._overlay_ops + ops
        snap.csr_rows_patched = rows_patched
        if base._label_cards is not None:
            snap._label_cards = base._label_cards.patched(
                num_nodes=snap.num_nodes,
                num_directed_edges=snap.num_directed_edges,
                num_undirected_edges=snap.num_undirected_edges,
                node_counts={
                    label: snap.num_nodes_with_label(label)
                    for label, net in node_label_nets.items()
                    if net
                },
                directed_edge_counts={
                    label: snap.num_directed_edges_with_label(label)
                    for label, net in dedge_label_nets.items()
                    if net
                },
                undirected_edge_counts={
                    label: snap.num_undirected_edges_with_label(label)
                    for label, net in uedge_label_nets.items()
                    if net
                },
            )
        snap.build_s = perf_counter() - started
        return snap

    # ------------------------------------------------------------------
    # Buffer pickling (ProcessBackend snapshot shipping)
    # ------------------------------------------------------------------

    def __reduce__(self):
        return (
            _rebuild_snapshot,
            (
                self.version,
                self.derived,
                self._core.payload(),
                self._overlay_payload(),
                self._overlay_ops,
                self.csr_rows_patched,
            ),
        )

    def _overlay_payload(self):
        if not (
            self._removed
            or self._ovl_node_labels
            or self._ovl_dedge_labels
            or self._ovl_uedge_labels
            or self._ovl_props
            or self._row_out
            or self._row_in
            or self._row_und
            or self._ovl_nodes_by_label
            or self._ovl_dedges_by_label
            or self._ovl_uedges_by_label
        ):
            return None
        return (
            frozenset(self._removed),
            frozenset(self._shadow),
            frozenset(self._dirty),
            self._ovl_node_labels,
            self._ovl_dedge_labels,
            self._ovl_uedge_labels,
            self._ovl_src,
            self._ovl_tgt,
            self._ovl_endpoints,
            self._ovl_props,
            self._row_out,
            self._row_in,
            self._row_und,
            self._ovl_nodes_by_label,
            self._ovl_dedges_by_label,
            self._ovl_uedges_by_label,
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
        elements — and cache it in ``_mask_cache``. The cache is
        per-snapshot (reset by ``_init_memos`` on derive/unpickle), so
        a delta chain can never see a stale mask. Mirrors
        :meth:`get_property`'s ``_ovl_props``-first resolution exactly.
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
                mask = bytes(buf)
                counters = active_counters()
                if counters is not None:
                    counters.masks_built += 1
            cache[cache_key] = mask
        return mask

    # ------------------------------------------------------------------
    # Formal accessors (same contracts as PropertyGraph)
    # ------------------------------------------------------------------

    def labels(self, element: GraphElementId) -> frozenset[str]:
        core = self._core
        d = core.dense.get(element)
        if d is not None and not (self._removed and element in self._removed):
            return core.labelsets[core.labelset_of[d]]
        for table in (
            self._ovl_node_labels,
            self._ovl_dedge_labels,
            self._ovl_uedge_labels,
        ):
            if table and element in table:
                return table[element]
        raise UnknownIdError(f"unknown element {element!r}")

    def source(self, edge: DirectedEdgeId) -> NodeId:
        core = self._core
        d = core.dense.get(edge)
        if d is not None and not (self._removed and edge in self._removed):
            n = core.n_nodes
            if n <= d < n + core.n_dedges:
                return core.elements[core.src_col[d - n]]
            raise UnknownIdError(f"unknown directed edge {edge!r}")
        ovl = self._ovl_src
        if ovl and edge in ovl:
            return ovl[edge]
        raise UnknownIdError(f"unknown directed edge {edge!r}")

    def target(self, edge: DirectedEdgeId) -> NodeId:
        core = self._core
        d = core.dense.get(edge)
        if d is not None and not (self._removed and edge in self._removed):
            n = core.n_nodes
            if n <= d < n + core.n_dedges:
                return core.elements[core.tgt_col[d - n]]
            raise UnknownIdError(f"unknown directed edge {edge!r}")
        ovl = self._ovl_tgt
        if ovl and edge in ovl:
            return ovl[edge]
        raise UnknownIdError(f"unknown directed edge {edge!r}")

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
        if self._has_overlay_element(element):
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
        if self._has_overlay_element(element):
            return {}
        raise UnknownIdError(f"unknown element {element!r}")

    def _has_overlay_element(self, element) -> bool:
        for table in (
            self._ovl_node_labels,
            self._ovl_dedge_labels,
            self._ovl_uedge_labels,
        ):
            if table and element in table:
                return True
        return False

    # ------------------------------------------------------------------
    # Carrier sets and counting
    # ------------------------------------------------------------------

    def _carrier(self, base: tuple, id_type: type, overlay: dict) -> tuple:
        removed = self._removed
        if not removed and not overlay:
            return base
        items = list(base)
        if removed:
            for item in sorted(
                (x for x in removed if type(x) is id_type), reverse=True
            ):
                index = bisect_left(items, item)
                if index < len(items) and items[index] == item:
                    del items[index]
        for item in overlay:
            insort(items, item)
        return tuple(items)

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """The node set ``N`` as a sorted tuple."""
        out = self._nodes
        if out is None:
            out = self._nodes = self._carrier(
                self._core.node_ids, NodeId, self._ovl_node_labels
            )
        return out

    @property
    def directed_edges(self) -> tuple[DirectedEdgeId, ...]:
        out = self._dedges
        if out is None:
            out = self._dedges = self._carrier(
                self._core.dedge_ids, DirectedEdgeId, self._ovl_dedge_labels
            )
        return out

    @property
    def undirected_edges(self) -> tuple[UndirectedEdgeId, ...]:
        out = self._uedges
        if out is None:
            out = self._uedges = self._carrier(
                self._core.uedge_ids, UndirectedEdgeId, self._ovl_uedge_labels
            )
        return out

    def _count(self, core_count: int, id_type: type, overlay: dict) -> int:
        if self._removed:
            core_count -= sum(
                1 for x in self._removed if type(x) is id_type
            )
        return core_count + len(overlay)

    @property
    def num_nodes(self) -> int:
        cached = self._nodes
        if cached is not None:
            return len(cached)
        return self._count(self._core.n_nodes, NodeId, self._ovl_node_labels)

    @property
    def num_directed_edges(self) -> int:
        cached = self._dedges
        if cached is not None:
            return len(cached)
        return self._count(
            self._core.n_dedges, DirectedEdgeId, self._ovl_dedge_labels
        )

    @property
    def num_undirected_edges(self) -> int:
        cached = self._uedges
        if cached is not None:
            return len(cached)
        return self._count(
            self._core.n_uedges, UndirectedEdgeId, self._ovl_uedge_labels
        )

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

    def _core_label_members(
        self, table: dict, label: str, memo: dict
    ) -> tuple:
        hit = memo.get(label)
        if hit is not None:
            return hit
        core = self._core
        li = core.label_index.get(label)
        arr = table.get(li) if li is not None else None
        if arr is None:
            hit = _EMPTY
        else:
            elements = core.elements
            hit = tuple(elements[d] for d in arr)
        memo[label] = hit
        return hit

    def nodes_with_label(self, label: str) -> tuple[NodeId, ...]:
        ovl = self._ovl_nodes_by_label
        if ovl:
            hit = ovl.get(label)
            if hit is not None:
                return hit
        return self._core_label_members(
            self._core.nodes_by_label, label, self._memo_nbl
        )

    def directed_edges_with_label(self, label: str) -> tuple[DirectedEdgeId, ...]:
        ovl = self._ovl_dedges_by_label
        if ovl:
            hit = ovl.get(label)
            if hit is not None:
                return hit
        return self._core_label_members(
            self._core.dedges_by_label, label, self._memo_dbl
        )

    def undirected_edges_with_label(
        self, label: str
    ) -> tuple[UndirectedEdgeId, ...]:
        ovl = self._ovl_uedges_by_label
        if ovl:
            hit = ovl.get(label)
            if hit is not None:
                return hit
        return self._core_label_members(
            self._core.uedges_by_label, label, self._memo_ubl
        )

    def all_labels(self) -> frozenset[str]:
        out = self._memo_all_labels
        if out is not None:
            return out
        core = self._core
        names = core.label_names
        found: set[str] = set()
        for table, overlay in (
            (core.nodes_by_label, self._ovl_nodes_by_label),
            (core.dedges_by_label, self._ovl_dedges_by_label),
            (core.uedges_by_label, self._ovl_uedges_by_label),
        ):
            for li, arr in table.items():
                name = names[li]
                if overlay and name in overlay:
                    continue  # the overlay decides (may be emptied)
                if arr:
                    found.add(name)
            if overlay:
                for name, members in overlay.items():
                    if members:
                        found.add(name)
        out = self._memo_all_labels = frozenset(found)
        return out

    # ------------------------------------------------------------------
    # Per-label cardinalities (consumed by the query planner)
    # ------------------------------------------------------------------

    def _label_count(self, table: dict, overlay: dict, label: str) -> int:
        if overlay:
            hit = overlay.get(label)
            if hit is not None:
                return len(hit)
        core = self._core
        li = core.label_index.get(label)
        arr = table.get(li) if li is not None else None
        return len(arr) if arr is not None else 0

    def num_nodes_with_label(self, label: str) -> int:
        return self._label_count(
            self._core.nodes_by_label, self._ovl_nodes_by_label, label
        )

    def num_directed_edges_with_label(self, label: str) -> int:
        return self._label_count(
            self._core.dedges_by_label, self._ovl_dedges_by_label, label
        )

    def num_undirected_edges_with_label(self, label: str) -> int:
        return self._label_count(
            self._core.uedges_by_label, self._ovl_uedges_by_label, label
        )

    def label_cardinalities(self):
        """The snapshot's per-label count summary, built once.

        Returns a :class:`repro.graph.statistics.LabelCardinalities`;
        snapshots are immutable, so the summary is cached for the
        snapshot's lifetime.
        """
        if self._label_cards is None:
            from repro.graph.statistics import LabelCardinalities

            names = self._core.label_names
            counts: list[dict[str, int]] = []
            for table, overlay in (
                (self._core.nodes_by_label, self._ovl_nodes_by_label),
                (self._core.dedges_by_label, self._ovl_dedges_by_label),
                (self._core.uedges_by_label, self._ovl_uedges_by_label),
            ):
                per_label: dict[str, int] = {}
                for li, arr in table.items():
                    name = names[li]
                    if overlay and name in overlay:
                        continue
                    if arr:
                        per_label[name] = len(arr)
                if overlay:
                    for name, members in overlay.items():
                        if members:
                            per_label[name] = len(members)
                counts.append(per_label)
            self._label_cards = LabelCardinalities(
                num_nodes=self.num_nodes,
                num_directed_edges=self.num_directed_edges,
                num_undirected_edges=self.num_undirected_edges,
                node_counts=counts[0],
                directed_edge_counts=counts[1],
                undirected_edge_counts=counts[2],
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

    def out_edges(self, node: NodeId) -> tuple[DirectedEdgeId, ...]:
        ovl = self._row_out
        if ovl:
            hit = ovl.get(node)
            if hit is not None:
                return hit
        memo = self._memo_out
        hit = memo.get(node)
        if hit is not None:
            return hit
        core = self._core
        d = self._core_node_dense(node)
        elements = core.elements
        col = core.out_edge
        off = core.out_off
        hit = memo[node] = tuple(
            elements[col[i]] for i in range(off[d], off[d + 1])
        )
        return hit

    def in_edges(self, node: NodeId) -> tuple[DirectedEdgeId, ...]:
        ovl = self._row_in
        if ovl:
            hit = ovl.get(node)
            if hit is not None:
                return hit
        memo = self._memo_in
        hit = memo.get(node)
        if hit is not None:
            return hit
        core = self._core
        d = self._core_node_dense(node)
        elements = core.elements
        col = core.in_edge
        off = core.in_off
        hit = memo[node] = tuple(
            elements[col[i]] for i in range(off[d], off[d + 1])
        )
        return hit

    def undirected_edges_at(self, node: NodeId) -> tuple[UndirectedEdgeId, ...]:
        ovl = self._row_und
        if ovl:
            hit = ovl.get(node)
            if hit is not None:
                return hit
        memo = self._memo_und
        hit = memo.get(node)
        if hit is not None:
            return hit
        core = self._core
        d = self._core_node_dense(node)
        elements = core.elements
        col = core.und_edge
        off = core.und_off
        hit = memo[node] = tuple(
            elements[col[i]] for i in range(off[d], off[d + 1])
        )
        return hit

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
            return (
                core.out_off[d + 1]
                - core.out_off[d]
                + core.in_off[d + 1]
                - core.in_off[d]
                + core.und_off[d + 1]
                - core.und_off[d]
            )
        return (
            len(self.out_edges(node))
            + len(self.in_edges(node))
            + len(self.undirected_edges_at(node))
        )

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

    def _has(self, element, lo: int, hi: int, overlay: dict) -> bool:
        d = self._core.dense.get(element)
        if (
            d is not None
            and lo <= d < hi
            and not (self._removed and element in self._removed)
        ):
            return True
        return bool(overlay) and element in overlay

    def has_node(self, node: NodeId) -> bool:
        return self._has(node, 0, self._core.n_nodes, self._ovl_node_labels)

    def has_edge(self, edge: EdgeId) -> bool:
        core = self._core
        n = core.n_nodes
        total = n + core.n_dedges + core.n_uedges
        return self._has(edge, n, total, self._ovl_dedge_labels) or (
            bool(self._ovl_uedge_labels) and edge in self._ovl_uedge_labels
        )

    def has_directed_edge(self, edge: DirectedEdgeId) -> bool:
        core = self._core
        n = core.n_nodes
        return self._has(edge, n, n + core.n_dedges, self._ovl_dedge_labels)

    def has_undirected_edge(self, edge: UndirectedEdgeId) -> bool:
        core = self._core
        lo = core.n_nodes + core.n_dedges
        return self._has(edge, lo, lo + core.n_uedges, self._ovl_uedge_labels)

    def has_element(self, element: GraphElementId) -> bool:
        core = self._core
        total = core.n_nodes + core.n_dedges + core.n_uedges
        if self._has(element, 0, total, self._ovl_node_labels):
            return True
        return self._has_overlay_element(element)

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
    overlay_payload,
    overlay_ops: int,
    rows_patched: int,
) -> GraphSnapshot:
    """Unpickle hook: reassemble a snapshot from buffer columns."""
    snap = object.__new__(GraphSnapshot)
    snap.version = version
    snap.derived = derived
    snap._core = SnapshotColumns.from_payload(core_payload)
    if overlay_payload is None:
        snap._removed = _EMPTY_SET
        snap._shadow = _EMPTY_SET
        snap._dirty = _EMPTY_SET
        snap._ovl_node_labels = {}
        snap._ovl_dedge_labels = {}
        snap._ovl_uedge_labels = {}
        snap._ovl_src = {}
        snap._ovl_tgt = {}
        snap._ovl_endpoints = {}
        snap._ovl_props = {}
        snap._row_out = {}
        snap._row_in = {}
        snap._row_und = {}
        snap._ovl_nodes_by_label = {}
        snap._ovl_dedges_by_label = {}
        snap._ovl_uedges_by_label = {}
    else:
        (
            snap._removed,
            snap._shadow,
            snap._dirty,
            snap._ovl_node_labels,
            snap._ovl_dedge_labels,
            snap._ovl_uedge_labels,
            snap._ovl_src,
            snap._ovl_tgt,
            snap._ovl_endpoints,
            snap._ovl_props,
            snap._row_out,
            snap._row_in,
            snap._row_und,
            snap._ovl_nodes_by_label,
            snap._ovl_dedges_by_label,
            snap._ovl_uedges_by_label,
        ) = overlay_payload
    snap._init_memos()
    snap._overlay_ops = overlay_ops
    snap.build_s = 0.0
    snap.csr_rows_patched = rows_patched
    return snap
