"""Ablation A9 — the columnar CSR snapshot's shipping payload.

Design choice under study: the interned-id + array-backed CSR
snapshot (:class:`GraphSnapshot`) versus the seed tuple-dict layout it
replaced. The seed layout is gone from the tree, so its side of the
comparison is a number frozen when it was last measurable.

Two measurements on one 10k-node graph (a segmented ring of ``next``
edges plus ``CHORDS`` random ``chord`` out-edges per node — the same
ring whose absolute ``shortest`` latencies the ``layers`` benchmark
records as ``ring_shortest``):

- **pickled snapshot size**: the derived-column codec (endpoint
  columns + run-length-encoded labelsets and property indexes; CSR
  rebuilt on load) must keep the process-pool shipping payload >= 3x
  smaller than the pickled seed dict layout, and the shipped snapshot
  must answer identically after the round trip.
- **resident footprint** of the column arrays, summed with
  ``sys.getsizeof`` — logged for the record, not asserted (CPython
  container overhead varies across versions).
"""

from __future__ import annotations

import pickle
import random
import sys
from array import array

import pytest

from repro.bench.harness import Table, emit_json
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot

N = 10_000
SEG = 250
CHORDS = 16
QUERY = "SHORTEST (x:Probe) -[:next]->{1,} (y:Adj)"

#: ``len(pickle.dumps(...))`` of the seed tuple-dict snapshot of the
#: graph below, in bytes: measured at commit 0a56e44 (PR 14), the last
#: one that shipped that layout (CPython 3.11, pickle protocol 4).
SEED_LAYOUT_PICKLE_BYTES = 11_874_243


@pytest.fixture(scope="module")
def snapshot() -> GraphSnapshot:
    rng = random.Random(9)
    graph = PropertyGraph()
    handles = []
    for i in range(N):
        labels = []
        if i % SEG == 0:
            labels.append("Probe")
        if i % SEG == 6:
            labels.append("Adj")
        handles.append(graph.add_node(f"n{i}", labels))
    for i in range(N - 1):
        # Break the ring at segment boundaries: every Probe has exactly
        # one Adj witness, six ``next`` hops away.
        if (i + 1) % SEG != 0:
            graph.add_edge(f"next{i}", handles[i], handles[i + 1], ["next"])
    for i in range(N):
        for c in range(CHORDS):
            graph.add_edge(
                f"c{i}_{c}", handles[i], handles[rng.randrange(N)], ["chord"]
            )
    return GraphSnapshot(graph)


def _footprint(obj: object) -> int:
    """Shallow-ish resident bytes: containers plus one level of values
    (covers dict-of-arrays in the columnar core without chasing shared
    element ids)."""
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for value in obj.values():
            if isinstance(value, (tuple, dict, array)):
                total += sys.getsizeof(value)
    return total


def test_a9_pickle_size(snapshot):
    csr_blob = pickle.dumps(snapshot)
    ratio = SEED_LAYOUT_PICKLE_BYTES / len(csr_blob)

    # The shipped snapshot still answers identically after the
    # column-codec round trip (CSR and label indexes rebuilt on load).
    clone = pickle.loads(csr_blob)
    query = parse_query(QUERY)
    answers = Evaluator(clone).evaluate(query)
    assert answers == Evaluator(snapshot).evaluate(query)
    assert len(answers) == N // SEG  # one witness per segment

    csr_index_bytes = sum(
        _footprint(getattr(snapshot._core, slot))
        for slot in type(snapshot._core).__slots__
    )
    table = Table(
        "A9: pickled snapshot payload (process-pool shipping)",
        ["layout", "bytes", "reduction"],
    )
    table.add("seed tuple-dict (frozen)", SEED_LAYOUT_PICKLE_BYTES, "1x")
    table.add("columnar codec", len(csr_blob), f"{ratio:.2f}x")
    table.show()
    print(
        f"A9 footprint: csr columns {csr_index_bytes / 1e6:.1f} MB resident "
        f"(getsizeof, logged not asserted)"
    )
    emit_json(
        "a9_csr_pickle",
        {
            "nodes": N,
            "seed_bytes": SEED_LAYOUT_PICKLE_BYTES,
            "csr_bytes": len(csr_blob),
            "reduction": ratio,
            "csr_index_bytes": csr_index_bytes,
        },
    )
    # Acceptance criterion: >= 3x smaller on a 10k-node graph.
    assert ratio >= 3, f"pickle payload only {ratio:.2f}x smaller"
