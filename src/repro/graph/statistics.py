"""Summary statistics over property graphs.

Used by tests as a cheap structural fingerprint and — via
:class:`LabelCardinalities` — by the query planner
(:mod:`repro.gpc.planner`) as the basis for cardinality estimation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Mapping

__all__ = [
    "GraphStatistics",
    "LabelCardinalities",
    "compute_statistics",
    "compute_label_cardinalities",
]


@dataclass(frozen=True)
class GraphStatistics:
    """Structural summary of a property graph."""

    num_nodes: int
    num_directed_edges: int
    num_undirected_edges: int
    num_labels: int
    num_property_keys: int
    max_degree: int
    min_degree: int
    mean_degree: float
    num_directed_self_loops: int
    num_undirected_self_loops: int
    label_histogram: dict[str, int] = field(hash=False, default_factory=dict)

    @property
    def num_edges(self) -> int:
        return self.num_directed_edges + self.num_undirected_edges


@dataclass(frozen=True)
class LabelCardinalities:
    """Per-label node/edge counts of one graph version.

    The query planner's cost model reads these to estimate pattern
    cardinalities and order join sides; snapshots build them once from
    their inverted label indexes
    (:meth:`~repro.graph.snapshot.GraphSnapshot.label_cardinalities`).
    """

    num_nodes: int
    num_directed_edges: int
    num_undirected_edges: int
    node_counts: Mapping[str, int] = field(hash=False, default_factory=dict)
    directed_edge_counts: Mapping[str, int] = field(
        hash=False, default_factory=dict
    )
    undirected_edge_counts: Mapping[str, int] = field(
        hash=False, default_factory=dict
    )

    def nodes_with_label(self, label: str) -> int:
        return self.node_counts.get(label, 0)

    def directed_edges_with_label(self, label: str) -> int:
        return self.directed_edge_counts.get(label, 0)

    def undirected_edges_with_label(self, label: str) -> int:
        return self.undirected_edge_counts.get(label, 0)

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


def compute_label_cardinalities(graph) -> LabelCardinalities:
    """Per-label counts for a graph or snapshot.

    Mutable graphs are snapshotted first (memoised per version), so
    repeated calls against an unchanged graph are free.
    """
    return graph.snapshot().label_cardinalities()


def compute_statistics(graph) -> GraphStatistics:
    """Compute a :class:`GraphStatistics` summary for a graph or
    snapshot, read off its snapshot."""
    view = graph.snapshot()
    degrees = [view.degree(n) for n in view.nodes] or [0]
    directed_loops = sum(
        1 for e in view.directed_edges if view.source(e) == view.target(e)
    )
    undirected_loops = sum(
        1 for e in view.undirected_edges if len(view.endpoints(e)) == 1
    )
    keys = {
        key
        for elements in (view.nodes, view.directed_edges, view.undirected_edges)
        for element in elements
        for key in view.properties(element)
    }
    cards = view.label_cardinalities()
    histogram: Counter[str] = Counter(cards.node_counts)
    histogram.update(cards.directed_edge_counts)
    histogram.update(cards.undirected_edge_counts)
    return GraphStatistics(
        num_nodes=view.num_nodes,
        num_directed_edges=view.num_directed_edges,
        num_undirected_edges=view.num_undirected_edges,
        num_labels=len(view.all_labels()),
        num_property_keys=len(keys),
        max_degree=max(degrees),
        min_degree=min(degrees),
        mean_degree=sum(degrees) / len(degrees),
        num_directed_self_loops=directed_loops,
        num_undirected_self_loops=undirected_loops,
        label_histogram=dict(histogram),
    )
