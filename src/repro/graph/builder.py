"""Fluent construction API for property graphs.

:class:`GraphBuilder` removes the id bookkeeping from graph
construction: node keys are arbitrary strings, edge keys are generated
automatically, and nodes referenced by edges are created on demand.

Example
-------
>>> g = (GraphBuilder()
...      .node("a", "Person", name="Ann")
...      .node("b", "Person", name="Bob")
...      .edge("a", "b", "knows", since=2020)
...      .undirected("a", "b", "sibling")
...      .build())
>>> g.num_nodes, g.num_edges
(2, 2)
"""

from __future__ import annotations

from typing import Hashable

from repro.errors import GraphError
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.property_graph import Constant, PropertyGraph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Incremental, chainable property-graph builder."""

    def __init__(self) -> None:
        self._graph = PropertyGraph()
        self._edge_counter = 0

    # ------------------------------------------------------------------

    def node(
        self,
        key: Hashable,
        *labels: str,
        **properties: Constant,
    ) -> "GraphBuilder":
        """Add (or re-label) a node.

        Adding an existing key with new labels/properties merges them.
        """
        node = NodeId(key)
        if not self._graph.has_node(node):
            self._graph.add_node(node, labels=labels, properties=properties)
            return self
        if labels:
            merged = self._graph.labels(node).union(labels)
            # PropertyGraph labels are immutable per element; rebuild entry.
            self._graph._node_labels[node] = self._graph._interned(merged)
        for prop_key, value in properties.items():
            self._graph.set_property(node, prop_key, value)
        return self

    def edge(
        self,
        source_key: Hashable,
        target_key: Hashable,
        *labels: str,
        key: Hashable | None = None,
        **properties: Constant,
    ) -> "GraphBuilder":
        """Add a directed edge, creating missing endpoint nodes."""
        source = self._ensure_node(source_key)
        target = self._ensure_node(target_key)
        edge_key = key if key is not None else self._next_edge_key("d")
        self._graph.add_edge(
            DirectedEdgeId(edge_key), source, target, labels=labels, properties=properties
        )
        return self

    def undirected(
        self,
        a_key: Hashable,
        b_key: Hashable,
        *labels: str,
        key: Hashable | None = None,
        **properties: Constant,
    ) -> "GraphBuilder":
        """Add an undirected edge, creating missing endpoint nodes."""
        node_a = self._ensure_node(a_key)
        node_b = self._ensure_node(b_key)
        edge_key = key if key is not None else self._next_edge_key("u")
        self._graph.add_undirected_edge(
            UndirectedEdgeId(edge_key), node_a, node_b, labels=labels, properties=properties
        )
        return self

    def properties(self, key: Hashable, **properties: Constant) -> "GraphBuilder":
        """Set properties on an existing node by key."""
        node = NodeId(key)
        if not self._graph.has_node(node):
            raise GraphError(f"no node with key {key!r}")
        for prop_key, value in properties.items():
            self._graph.set_property(node, prop_key, value)
        return self

    def chain(
        self,
        keys: list[Hashable],
        *labels: str,
        node_labels: tuple[str, ...] = (),
    ) -> "GraphBuilder":
        """Add a directed chain ``k0 -> k1 -> ... -> kn``."""
        if len(keys) < 2:
            raise GraphError("a chain needs at least two node keys")
        for node_key in keys:
            self._ensure_node(node_key, node_labels)
        for a, b in zip(keys, keys[1:]):
            self.edge(a, b, *labels)
        return self

    def build(self) -> PropertyGraph:
        """Return the constructed graph (the builder stays usable)."""
        return self._graph.copy()

    # ------------------------------------------------------------------

    def _ensure_node(
        self, key: Hashable, labels: tuple[str, ...] = ()
    ) -> NodeId:
        node = NodeId(key)
        if not self._graph.has_node(node):
            self._graph.add_node(node, labels=labels)
        return node

    def _next_edge_key(self, prefix: str) -> str:
        self._edge_counter += 1
        return f"_{prefix}{self._edge_counter}"
