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
        # property equality and per interned label.
        "_prop_masks",
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
        patch overlay bits on their own copies.
        """
        cache = self._prop_masks
        cache_key = (key, const)
        mask = cache.get(cache_key)
        if mask is None:
            buf = bytearray((len(self.elements) + 7) >> 3)
            col = self.prop_cols.get(key)
            if col is not None and const is not None:
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
        CSR, and the per-label membership arrays are all derivable in
        one linear pass, so :meth:`from_payload` recomputes them on
        load instead of paying their bytes on the wire.
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
        elements = core.node_ids + core.dedge_ids + core.uedge_ids
        core.elements = elements
        core.dense = {e: i for i, e in enumerate(elements)}
        n = core.n_nodes = len(node_keys)
        m = core.n_dedges = len(dedge_keys)
        core.n_uedges = len(uedge_keys)
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
        core._prop_masks = {}
        core._label_masks = {}
        core._filtered_csr = {}

        # Rebuild CSR + reverse CSR from the endpoint columns. Edges
        # are visited in dense (= sorted-id) order, so each bucketed
        # row comes out sorted by edge id — exactly the builder's
        # layout.
        out_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        in_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        und_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for j, (s, t) in enumerate(zip(core.src_col, core.tgt_col)):
            edge = n + j
            out_rows[s].append((edge, t))
            in_rows[t].append((edge, s))
        first_uedge = n + m
        for j, (a, b) in enumerate(zip(core.ua_col, core.ub_col)):
            edge = first_uedge + j
            und_rows[a].append((edge, b))
            if b != a:
                und_rows[b].append((edge, a))
        for attr_off, attr_edge, attr_other, rows in (
            ("out_off", "out_edge", "out_tgt", out_rows),
            ("in_off", "in_edge", "in_src", in_rows),
            ("und_off", "und_edge", "und_other", und_rows),
        ):
            off = array(DENSE_TYPECODE, [0])
            edge_col = array(DENSE_TYPECODE)
            other_col = array(DENSE_TYPECODE)
            for row in rows:
                for edge, other in row:
                    edge_col.append(edge)
                    other_col.append(other)
                off.append(len(edge_col))
            setattr(core, attr_off, off)
            setattr(core, attr_edge, edge_col)
            setattr(core, attr_other, other_col)

        # Rebuild per-label membership from the labelset column.
        labelset_of = core.labelset_of
        labelsets_int = core.labelsets_int
        for attr, lo, hi in (
            ("nodes_by_label", 0, n),
            ("dedges_by_label", n, n + m),
            ("uedges_by_label", n + m, len(elements)),
        ):
            by_label: dict[int, array] = {}
            for d in range(lo, hi):
                for li in labelsets_int[labelset_of[d]]:
                    arr = by_label.get(li)
                    if arr is None:
                        arr = by_label[li] = array(DENSE_TYPECODE)
                    arr.append(d)
            setattr(core, attr, by_label)
        return core


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

    Reads the graph's internal mappings (``_node_labels``, ``_out``,
    …) and flattens them into the dense layout described in the module
    docstring.
    """
    core = object.__new__(SnapshotColumns)

    nodes = sorted(graph._node_labels)
    dedges = sorted(graph._dedge_labels)
    uedges = sorted(graph._uedge_labels)
    core.node_ids = tuple(nodes)
    core.dedge_ids = tuple(dedges)
    core.uedge_ids = tuple(uedges)
    elements = core.node_ids + core.dedge_ids + core.uedge_ids
    dense = {e: i for i, e in enumerate(elements)}
    core.elements = elements
    core.dense = dense
    core.n_nodes = len(nodes)
    core.n_dedges = len(dedges)
    core.n_uedges = len(uedges)

    # Label interning: names, then whole label sets (few distinct sets
    # in practice — one table entry per distinct set, one small int per
    # element).
    names = set()
    for table in (graph._node_labels, graph._dedge_labels, graph._uedge_labels):
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

    def intern_set(labels: frozenset[str]) -> int:
        idx = set_index.get(labels)
        if idx is None:
            idx = set_index[labels] = len(labelsets)
            labelsets.append(labels)
            labelsets_int.append(
                frozenset(label_index[name] for name in labels)
            )
        return idx

    for element in elements:
        for table in (
            graph._node_labels, graph._dedge_labels, graph._uedge_labels
        ):
            labels = table.get(element)
            if labels is not None:
                labelset_of.append(intern_set(labels))
                break
    core.labelsets = tuple(labelsets)
    core.labelsets_int = tuple(labelsets_int)
    core.labelset_of = labelset_of

    # CSR adjacency. Rows are sorted by edge id, so the thin view
    # iterates a node's edges in id order on every build.
    out_off = array(DENSE_TYPECODE, [0])
    out_edge = array(DENSE_TYPECODE)
    out_tgt = array(DENSE_TYPECODE)
    in_off = array(DENSE_TYPECODE, [0])
    in_edge = array(DENSE_TYPECODE)
    in_src = array(DENSE_TYPECODE)
    und_off = array(DENSE_TYPECODE, [0])
    und_edge = array(DENSE_TYPECODE)
    und_other = array(DENSE_TYPECODE)
    src_of, tgt_of = graph._src, graph._tgt
    endpoints_of = graph._endpoints
    for node in nodes:
        for edge in sorted(graph._out[node]):
            out_edge.append(dense[edge])
            out_tgt.append(dense[tgt_of[edge]])
        out_off.append(len(out_edge))
        for edge in sorted(graph._in[node]):
            in_edge.append(dense[edge])
            in_src.append(dense[src_of[edge]])
        in_off.append(len(in_edge))
        for edge in sorted(graph._undirected_at[node]):
            und_edge.append(dense[edge])
            ends = endpoints_of[edge]
            if len(ends) == 1:
                other = node
            else:
                (other,) = ends - {node}
            und_other.append(dense[other])
        und_off.append(len(und_edge))
    core.out_off, core.out_edge, core.out_tgt = out_off, out_edge, out_tgt
    core.in_off, core.in_edge, core.in_src = in_off, in_edge, in_src
    core.und_off, core.und_edge, core.und_other = und_off, und_edge, und_other

    core.src_col = array(DENSE_TYPECODE, (dense[src_of[e]] for e in dedges))
    core.tgt_col = array(DENSE_TYPECODE, (dense[tgt_of[e]] for e in dedges))
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

    # Label membership columns per class; dense ascending order equals
    # sorted-by-real-id order within each class.
    for attr, table, members in (
        ("nodes_by_label", graph._node_labels, nodes),
        ("dedges_by_label", graph._dedge_labels, dedges),
        ("uedges_by_label", graph._uedge_labels, uedges),
    ):
        by_label: dict[int, array] = {}
        for element in members:
            d = dense[element]
            for name in table[element]:
                li = label_index[name]
                arr = by_label.get(li)
                if arr is None:
                    arr = by_label[li] = array(DENSE_TYPECODE)
                arr.append(d)
        setattr(core, attr, by_label)
    core._prop_masks = {}
    core._label_masks = {}
    core._filtered_csr = {}
    return core
