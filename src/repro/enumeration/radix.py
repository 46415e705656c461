"""Radix-order enumeration of the paths of a graph.

Theorem 12's enumerator considers candidate paths "in increasing
length, and then by the ordering we assume on node and edge ids" —
radix order. This module materialises that order lazily: level ``L``
holds every path (walk) of length ``L``, sorted lexicographically, and
levels are produced in increasing ``L``.
"""

from __future__ import annotations

from typing import Iterator

from repro.graph.ids import NodeId
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph

__all__ = ["iter_paths_radix", "extend_by_one_edge"]


def extend_by_one_edge(graph: PropertyGraph, path: Path) -> list[Path]:
    """All one-edge extensions of ``path`` (forward, backward and
    undirected traversals from its target), deduplicated, read off the
    snapshot of ``graph`` (a snapshot is its own)."""
    view = graph.snapshot()
    node = path.tgt
    steps: set[tuple] = set()
    for edge in view.out_edges(node):
        steps.add((edge, view.target(edge)))
    for edge in view.in_edges(node):
        steps.add((edge, view.source(edge)))
    for edge in view.undirected_edges_at(node):
        steps.add((edge, view.other_endpoint(edge, node)))
    return [
        Path(path.elements + (edge, target))
        for edge, target in sorted(steps)
    ]


def iter_paths_radix(
    graph: PropertyGraph,
    max_length: int,
    start: NodeId | None = None,
) -> Iterator[Path]:
    """Yield every path of ``graph`` with ``len <= max_length`` in
    radix order; restrict to paths starting at ``start`` if given.

    The number of walks grows exponentially with length — callers
    control the horizon via ``max_length``.
    """
    view = graph.snapshot()
    if start is not None:
        level = [Path.node(start)] if view.has_node(start) else []
    else:
        level = [Path.node(node) for node in sorted(view.nodes)]
    length = 0
    while level and length <= max_length:
        yield from level
        if length == max_length:
            return
        next_level: list[Path] = []
        for path in level:
            next_level.extend(extend_by_one_edge(view, path))
        next_level.sort()
        level = next_level
        length += 1
