"""Columnar storage core for graph snapshots.

:class:`SnapshotColumns` is the interned, array-backed heart of
:class:`repro.graph.snapshot.GraphSnapshot`. Instead of one Python
object per adjacency entry, it stores:

- **dense element ids** — every node, directed edge, and undirected
  edge is interned into a dense integer: nodes occupy ``[0, N)``,
  directed edges ``[N, N+M)``, undirected edges ``[N+M, N+M+K)``, each
  class in sorted real-id order. Dense order therefore *is* the
  engine's deterministic iteration order, and the three ranges are
  disjoint by construction (no tagging needed).
- **interned labels** — label strings map to small ints
  (``label_index``), and each element's label *set* is interned once
  (``labelsets`` / ``labelsets_int``) with a per-element index column
  (``labelset_of``), so a label test is two array reads and one small
  frozenset probe.
- **CSR adjacency** — ``out`` / ``in`` / ``undirected`` adjacency as
  compressed-sparse-row triples: an offsets array of length ``N+1``
  plus parallel edge/neighbour columns, all :mod:`array` ``'i'``
  buffers. ``degree`` becomes offset subtraction; a row scan is a
  contiguous int walk with no pointer chasing.
- **per-key property columns** — ``prop_cols[key]`` maps dense id to
  value, one dict per property key instead of one dict per element.
- **label membership columns** — per class, ``label int -> array`` of
  dense ids (ascending, i.e. sorted by real id).

Ids, interned labels, edge endpoints and properties are the
*irreducible* columns. CSR and label indexes are derived from them, by
one pass (:func:`_build_indexes`), on build and on load:
:func:`build_columns` fills the irreducible columns from the mutable
graph, :meth:`SnapshotColumns.from_payload` from a pickle.

The core is immutable and shared: derived snapshots keep a reference
to their base's columns and layer small overlay dicts on top (see
:meth:`GraphSnapshot.derive`). Pickling ships the raw array buffers
via ``tobytes`` (see :meth:`SnapshotColumns.payload`), which is what
makes :class:`~repro.cluster.backends.ProcessBackend` snapshot
shipping a buffer copy instead of a deep object pickle.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.obs.counters import active_counters as _active_counters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.property_graph import PropertyGraph

__all__ = ["SnapshotColumns", "and_masks", "build_columns"]

#: Typecode for every dense-id column. ``'i'`` (4 bytes) halves pickle
#: size versus platform longs; dense ids are bounded by element count.
DENSE_TYPECODE = "i"


def and_masks(left: "bytes | None", right: "bytes | None") -> "bytes | None":
    """Bitwise AND of two dense-id bitmasks over the same id space
    (``None`` = no constraint). Masks span nodes *and* edges, so the
    AND goes through one big-int operation, not a per-byte loop."""
    if left is None:
        return right
    if right is None:
        return left
    return (
        int.from_bytes(left, "little") & int.from_bytes(right, "little")
    ).to_bytes(len(left), "little")


class SnapshotColumns:
    """Immutable columnar core shared by a snapshot and its derivatives."""

    __slots__ = (
        "elements",
        "node_ids",
        "dedge_ids",
        "uedge_ids",
        "dense",
        "n_nodes",
        "n_dedges",
        "n_uedges",
        "label_names",
        "label_index",
        "labelsets",
        "labelsets_int",
        "labelset_of",
        "out_off",
        "out_edge",
        "out_tgt",
        "in_off",
        "in_edge",
        "in_src",
        "und_off",
        "und_edge",
        "und_other",
        "src_col",
        "tgt_col",
        "ua_col",
        "ub_col",
        "prop_cols",
        "nodes_by_label",
        "dedges_by_label",
        "uedges_by_label",
        # Lazily built dense-id bitmask indexes (never pickled): one
        # bytes mask over the whole dense id space per (key, const)
        # property equality and per interned label; per key, its values.
        "_prop_masks",
        "_prop_values",
        "_label_masks",
        # Lazily built label-restricted CSR triples (never pickled),
        # keyed by (adjacency kind, label int).
        "_filtered_csr",
    )

    # ------------------------------------------------------------------
    # Bitmask indexes (predicate/label pushdown)
    # ------------------------------------------------------------------

    def prop_mask(self, key: str, const) -> bytes:
        """Dense-id bitmask of ``element.key == const`` over the core.

        Bit ``d`` (``mask[d >> 3] & (1 << (d & 7))``) is set iff dense
        element ``d`` carries property ``key`` with value equal to
        ``const`` in the immutable core columns. Built lazily from the
        property column in one pass and cached forever — the core never
        changes, so derived snapshots share the same mask and only
        patch overlay bits on their own copies. A constant no core
        element carries gets the shared all-zero mask, uncached: the
        cache is bounded by the data, not by the constants asked for.
        """
        cache = self._prop_masks
        cache_key = (key, const)
        mask = cache.get(cache_key)
        if mask is None:
            col = self.prop_cols.get(key, {})
            values = self._prop_values.get(key)
            if values is None:
                values = self._prop_values[key] = frozenset(col.values())
            if const not in values:
                return self.label_mask(-1)
            buf = bytearray((len(self.elements) + 7) >> 3)
            for d, value in col.items():
                if value == const:
                    buf[d >> 3] |= 1 << (d & 7)
            mask = cache[cache_key] = bytes(buf)
            counters = _active_counters()
            if counters is not None:
                counters.masks_built += 1
        return mask

    def label_mask(self, label_int: int) -> bytes:
        """Dense-id bitmask of label membership (all element classes).

        ``label_int`` is an index into :attr:`label_names`; a negative
        value (label not interned — no core element carries it) yields
        an all-zero mask, so compiled probes fail uniformly instead of
        branching on interning misses.
        """
        cache = self._label_masks
        mask = cache.get(label_int)
        if mask is None:
            buf = bytearray((len(self.elements) + 7) >> 3)
            if label_int >= 0:
                for table in (
                    self.nodes_by_label,
                    self.dedges_by_label,
                    self.uedges_by_label,
                ):
                    arr = table.get(label_int)
                    if arr:
                        for d in arr:
                            buf[d >> 3] |= 1 << (d & 7)
            mask = cache[label_int] = bytes(buf)
            counters = _active_counters()
            if counters is not None:
                counters.masks_built += 1
        return mask

    def csr(self, kind: str) -> tuple:
        """The full ``(off, edge, other)`` CSR triple of one adjacency
        (``"out"``/``"in"``/``"und"``)."""
        if kind == "out":
            return self.out_off, self.out_edge, self.out_tgt
        if kind == "in":
            return self.in_off, self.in_edge, self.in_src
        return self.und_off, self.und_edge, self.und_other

    def filtered_csr(self, kind: str, label_int: int) -> tuple:
        """CSR triple restricted to edges carrying ``label_int``.

        ``kind`` selects the adjacency as in :meth:`csr`; the result is
        an ``(off, edge, other)`` triple shaped exactly like the full
        CSR but containing only the label's edges, so a labelled
        traversal walks matching edges contiguously instead of probing
        a bitmask per edge. A negative ``label_int`` (label not
        interned) yields all-empty rows. Built lazily in one pass over
        the full CSR against :meth:`label_mask` and cached forever.

        The index knows the immutable core only, so on a derived
        snapshot **only the row of a clean core node may be read from
        it** — a node that is neither shadowed nor in the snapshot's
        ``_dirty`` set. Every edge a derive chain adds, removes or
        relabels patches the rows of its endpoints, so a clean node's
        row is exactly its current labelled adjacency; any other node's
        row must come through the snapshot's accessors.
        """
        cache = self._filtered_csr
        cache_key = (kind, label_int)
        hit = cache.get(cache_key)
        if hit is None:
            new_edge = array(DENSE_TYPECODE)
            new_other = array(DENSE_TYPECODE)
            if label_int < 0:
                new_off = array(DENSE_TYPECODE, [0]) * (self.n_nodes + 1)
            else:
                off, edge, other = self.csr(kind)
                mask = self.label_mask(label_int)
                new_off = array(DENSE_TYPECODE, [0])
                for node in range(self.n_nodes):
                    for i in range(off[node], off[node + 1]):
                        e = edge[i]
                        if mask[e >> 3] & (1 << (e & 7)):
                            new_edge.append(e)
                            new_other.append(other[i])
                    new_off.append(len(new_edge))
            hit = cache[cache_key] = (new_off, new_edge, new_other)
            counters = _active_counters()
            if counters is not None:
                counters.masks_built += 1
        return hit

    # ------------------------------------------------------------------
    # Buffer pickling
    # ------------------------------------------------------------------

    def payload(self) -> tuple:
        """A compact, picklable encoding of the core.

        Only the *irreducible* columns travel: the bare id keys, the
        label tables, a run-length-coded ``labelset_of``, the edge
        endpoint columns, and the property columns (run-length-coded
        ascending index + value tuple). The CSR triples, the reverse
        CSR, and the per-label membership arrays are derived again on
        load (:func:`_build_indexes`) instead of paying their bytes on
        the wire.
        """
        return (
            tuple(e.key for e in self.node_ids),
            tuple(e.key for e in self.dedge_ids),
            tuple(e.key for e in self.uedge_ids),
            self.label_names,
            tuple(tuple(sorted(s)) for s in self.labelsets_int),
            _rle_values(self.labelset_of),
            self.src_col.tobytes(),
            self.tgt_col.tobytes(),
            self.ua_col.tobytes(),
            self.ub_col.tobytes(),
            {
                key: (
                    _rle_ascending(sorted(col)),
                    tuple(col[d] for d in sorted(col)),
                )
                for key, col in self.prop_cols.items()
            },
        )

    @classmethod
    def from_payload(cls, payload: tuple) -> "SnapshotColumns":
        (
            node_keys,
            dedge_keys,
            uedge_keys,
            label_names,
            labelset_ints,
            labelset_of_enc,
            src_bytes,
            tgt_bytes,
            ua_bytes,
            ub_bytes,
            prop_payload,
        ) = payload
        core = object.__new__(cls)
        core.node_ids = tuple(NodeId(k) for k in node_keys)
        core.dedge_ids = tuple(DirectedEdgeId(k) for k in dedge_keys)
        core.uedge_ids = tuple(UndirectedEdgeId(k) for k in uedge_keys)
        core.elements = core.node_ids + core.dedge_ids + core.uedge_ids
        core.dense = {e: i for i, e in enumerate(core.elements)}
        core.label_names = label_names
        core.label_index = {name: i for i, name in enumerate(label_names)}
        core.labelsets_int = tuple(frozenset(s) for s in labelset_ints)
        core.labelsets = tuple(
            frozenset(label_names[i] for i in s) for s in labelset_ints
        )
        core.labelset_of = _unrle_values(labelset_of_enc)
        core.src_col = _from_bytes(src_bytes)
        core.tgt_col = _from_bytes(tgt_bytes)
        core.ua_col = _from_bytes(ua_bytes)
        core.ub_col = _from_bytes(ub_bytes)
        core.prop_cols = {
            key: dict(zip(_unrle_ascending(idx_enc), values))
            for key, (idx_enc, values) in prop_payload.items()
        }
        _build_indexes(core)
        return core


def _build_indexes(core: SnapshotColumns) -> None:
    """Fill every derived slot of ``core`` from its irreducible columns.

    The one place the counts, the CSR triples and the per-label tables
    are made. Reads the id tuples' sizes, the endpoint columns and
    ``labelset_of`` / ``labelsets_int`` — dense ints only: no real id
    is sorted or hashed. The lazy caches start empty.
    """
    n = core.n_nodes = len(core.node_ids)
    core.n_dedges = len(core.dedge_ids)
    core.n_uedges = len(core.uedge_ids)
    first_uedge = n + core.n_dedges

    src, tgt, dedges = core.src_col, core.tgt_col, range(n, first_uedge)
    core.out_off, core.out_edge, core.out_tgt = _csr(n, src, dedges, tgt)
    core.in_off, core.in_edge, core.in_src = _csr(n, tgt, dedges, src)
    # An undirected edge sits in the row of each endpoint; a self-loop
    # has one endpoint, hence one row entry.
    at, uedges, far = (array(DENSE_TYPECODE) for _ in range(3))
    for edge, (a, b) in enumerate(zip(core.ua_col, core.ub_col), first_uedge):
        at.append(a)
        uedges.append(edge)
        far.append(b)
        if b != a:
            at.append(b)
            uedges.append(edge)
            far.append(a)
    core.und_off, core.und_edge, core.und_other = _csr(n, at, uedges, far)

    # Label membership columns per class; dense ascending order equals
    # sorted-by-real-id order within each class.
    labelset_of = core.labelset_of
    labelsets_int = core.labelsets_int
    for attr, lo, hi in (
        ("nodes_by_label", 0, n),
        ("dedges_by_label", n, first_uedge),
        ("uedges_by_label", first_uedge, len(core.elements)),
    ):
        by_label: dict[int, array] = {}
        for d in range(lo, hi):
            for li in labelsets_int[labelset_of[d]]:
                arr = by_label.get(li)
                if arr is None:
                    arr = by_label[li] = array(DENSE_TYPECODE)
                arr.append(d)
        setattr(core, attr, by_label)

    core._prop_masks = {}
    core._prop_values = {}
    core._label_masks = {}
    core._filtered_csr = {}


def _csr(n: int, at, edges, others) -> tuple[array, array, array]:
    """The ``(off, edge, other)`` triple over ``n`` nodes: entry ``i``
    puts ``(edges[i], others[i])`` in the row of node ``at[i]``. A
    counting sort, so rows keep entry order — callers list entries by
    ascending edge id, which is why every row comes out sorted by edge
    id. Arrays throughout: a per-entry object here is tens of MB on the
    serving process's peak RSS."""
    off = array(DENSE_TYPECODE, [0]) * (n + 1)
    for node in at:
        off[node + 1] += 1
    for node in range(n):
        off[node + 1] += off[node]
    cursor = off[:n]
    edge_col = array(DENSE_TYPECODE, [0]) * len(at)
    other_col = array(DENSE_TYPECODE, [0]) * len(at)
    for node, edge, other in zip(at, edges, others):
        slot = cursor[node]
        edge_col[slot] = edge
        other_col[slot] = other
        cursor[node] = slot + 1
    return off, edge_col, other_col


def _from_bytes(data: bytes) -> array:
    out = array(DENSE_TYPECODE)
    out.frombytes(data)
    return out


def _rle_values(values) -> tuple[bool, bytes]:
    """Run-length code a sequence of ints as (value, count) pairs.

    Label-set columns are long runs of the same small int (most
    elements of a class share a label set), so this routinely shrinks
    them by orders of magnitude. Falls back to the raw array when runs
    don't win (flag ``False``).
    """
    runs = array(DENSE_TYPECODE)
    current = None
    count = 0
    for value in values:
        if value == current:
            count += 1
        else:
            if count:
                runs.append(current)
                runs.append(count)
            current = value
            count = 1
    if count:
        runs.append(current)
        runs.append(count)
    if len(runs) < len(values):
        return (True, runs.tobytes())
    return (False, array(DENSE_TYPECODE, values).tobytes())


def _unrle_values(encoded: tuple[bool, bytes]) -> array:
    compressed, data = encoded
    if not compressed:
        return _from_bytes(data)
    runs = _from_bytes(data)
    out = array(DENSE_TYPECODE)
    for i in range(0, len(runs), 2):
        value, count = runs[i], runs[i + 1]
        out.extend(array(DENSE_TYPECODE, [value]) * count)
    return out


def _rle_ascending(values) -> tuple[bool, bytes]:
    """Run-length code an ascending int sequence as (start, count)
    runs of consecutive ints.

    Property-index columns are near-contiguous dense-id ranges (every
    Person has an ``age``), so they collapse to a handful of runs."""
    runs = array(DENSE_TYPECODE)
    start = None
    count = 0
    previous = None
    for value in values:
        if previous is not None and value == previous + 1:
            count += 1
        else:
            if count:
                runs.append(start)
                runs.append(count)
            start = value
            count = 1
        previous = value
    if count:
        runs.append(start)
        runs.append(count)
    if len(runs) < len(values):
        return (True, runs.tobytes())
    return (False, array(DENSE_TYPECODE, values).tobytes())


def _unrle_ascending(encoded: tuple[bool, bytes]) -> array:
    compressed, data = encoded
    if not compressed:
        return _from_bytes(data)
    runs = _from_bytes(data)
    out = array(DENSE_TYPECODE)
    for i in range(0, len(runs), 2):
        start, count = runs[i], runs[i + 1]
        out.extend(array(DENSE_TYPECODE, range(start, start + count)))
    return out


def build_columns(graph: "PropertyGraph") -> SnapshotColumns:
    """Intern and columnarise one version of a mutable graph.

    Reads the graph's internal mappings (``_node_labels``, ``_src``,
    …) into the irreducible columns of the dense layout described in
    the module docstring — sorted ids, interned labels, endpoint and
    property columns; :func:`_build_indexes` derives the rest.
    """
    core = object.__new__(SnapshotColumns)

    nodes = sorted(graph._node_labels)
    dedges = sorted(graph._dedge_labels)
    uedges = sorted(graph._uedge_labels)
    core.node_ids = tuple(nodes)
    core.dedge_ids = tuple(dedges)
    core.uedge_ids = tuple(uedges)
    core.elements = elements = core.node_ids + core.dedge_ids + core.uedge_ids
    core.dense = dense = {e: i for i, e in enumerate(elements)}

    # Label interning: names, then whole label sets (few distinct sets
    # in practice — one table entry per distinct set, one small int per
    # element).
    classes = (
        (nodes, graph._node_labels),
        (dedges, graph._dedge_labels),
        (uedges, graph._uedge_labels),
    )
    names = set()
    for _, table in classes:
        for labels in table.values():
            names.update(labels)
    label_names = tuple(sorted(names))
    label_index = {name: i for i, name in enumerate(label_names)}
    core.label_names = label_names
    core.label_index = label_index

    set_index: dict[frozenset[str], int] = {}
    labelsets: list[frozenset[str]] = []
    labelsets_int: list[frozenset[int]] = []
    labelset_of = array(DENSE_TYPECODE)
    for members, table in classes:
        for element in members:
            labels = table[element]
            idx = set_index.get(labels)
            if idx is None:
                idx = set_index[labels] = len(labelsets)
                labelsets.append(labels)
                labelsets_int.append(
                    frozenset(label_index[name] for name in labels)
                )
            labelset_of.append(idx)
    core.labelsets = tuple(labelsets)
    core.labelsets_int = tuple(labelsets_int)
    core.labelset_of = labelset_of

    # Endpoint columns, filled in sorted-id (= dense) order: the index
    # pass visits them front to back and relies on that order for its
    # id-sorted adjacency rows.
    src_of, tgt_of = graph._src, graph._tgt
    core.src_col = array(DENSE_TYPECODE, (dense[src_of[e]] for e in dedges))
    core.tgt_col = array(DENSE_TYPECODE, (dense[tgt_of[e]] for e in dedges))
    endpoints_of = graph._endpoints
    ua_col = array(DENSE_TYPECODE)
    ub_col = array(DENSE_TYPECODE)
    for edge in uedges:
        ends = sorted(dense[n] for n in endpoints_of[edge])
        ua_col.append(ends[0])
        ub_col.append(ends[-1])
    core.ua_col, core.ub_col = ua_col, ub_col

    prop_cols: dict[str, dict[int, object]] = {}
    for element, props in graph._properties.items():
        d = dense[element]
        for key, value in props.items():
            col = prop_cols.get(key)
            if col is None:
                col = prop_cols[key] = {}
            col[d] = value
    core.prop_cols = prop_cols

    _build_indexes(core)
    return core
