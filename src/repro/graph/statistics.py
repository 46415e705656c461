"""Summary statistics over property graphs.

Used by the benchmark harness to report workload characteristics next
to measured results, by tests as a cheap structural fingerprint, and —
via :class:`LabelCardinalities` — by the query planner
(:mod:`repro.gpc.planner`) as the basis for cardinality estimation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

from repro.graph.property_graph import PropertyGraph

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


def compute_statistics(graph: PropertyGraph) -> GraphStatistics:
    """Compute a :class:`GraphStatistics` summary for ``graph``."""
    view = graph.snapshot()
    degrees = [view.degree(n) for n in view.nodes] or [0]
    directed_loops = sum(
        1 for e in graph.directed_edges if graph.source(e) == graph.target(e)
    )
    undirected_loops = sum(
        1 for e in graph.undirected_edges if len(graph.endpoints(e)) == 1
    )
    histogram: dict[str, int] = {}
    for node in graph.nodes:
        for label in graph.labels(node):
            histogram[label] = histogram.get(label, 0) + 1
    for edge in graph.directed_edges | graph.undirected_edges:
        for label in graph.labels(edge):
            histogram[label] = histogram.get(label, 0) + 1
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_directed_edges=graph.num_directed_edges,
        num_undirected_edges=graph.num_undirected_edges,
        num_labels=len(graph.all_labels()),
        num_property_keys=len(graph.all_property_keys()),
        max_degree=max(degrees),
        min_degree=min(degrees),
        mean_degree=sum(degrees) / len(degrees),
        num_directed_self_loops=directed_loops,
        num_undirected_self_loops=undirected_loops,
        label_histogram=histogram,
    )
