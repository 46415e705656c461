"""Graph x NFA product construction and reachability.

Given a property graph and an NFA over traversal steps, the product's
states are ``(node, nfa_state)`` pairs. Epsilon transitions have
weight 0; edge steps have weight 1 (they lengthen the matched path by
one edge). 0-1 BFS then yields, for every start node, the minimum
length of an accepted path to every end node.

This gives the classical PTIME RPQ evaluation algorithm the Section 6
baselines run.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.direction import Direction
from repro.graph.ids import NodeId
from repro.graph.property_graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.automata.nfa import NFA

__all__ = [
    "min_accepting_lengths",
    "accepted_pairs",
    "pairs_and_distances",
]


def _edge_successors(
    view: GraphSnapshot, node: NodeId, direction: Direction, label: str | None
) -> Iterable[NodeId]:
    """Nodes reachable from ``node`` by one step in ``direction``."""
    if direction is Direction.FORWARD:
        for edge in view.out_edges(node):
            if label is None or label in view.labels(edge):
                yield view.target(edge)
    elif direction is Direction.BACKWARD:
        for edge in view.in_edges(node):
            if label is None or label in view.labels(edge):
                yield view.source(edge)
    else:
        for edge in view.undirected_edges_at(node):
            if label is None or label in view.labels(edge):
                yield view.other_endpoint(edge, node)


def min_accepting_lengths(
    graph: PropertyGraph, nfa: NFA, start: NodeId
) -> dict[NodeId, int]:
    """For one start node: min length of an accepted path to each end
    node (missing keys mean unreachable), over the snapshot of
    ``graph`` (a snapshot is its own)."""
    view = graph.snapshot()
    # 0-1 BFS over (node, state).
    dist: dict[tuple[NodeId, int], int] = {(start, nfa.initial): 0}
    queue: deque[tuple[NodeId, int]] = deque([(start, nfa.initial)])
    best: dict[NodeId, int] = {}
    while queue:
        node, state = queue.popleft()
        d = dist[(node, state)]
        if state in nfa.finals:
            if node not in best or d < best[node]:
                best[node] = d
        # Weight-0 moves: epsilon.
        for target in nfa.epsilon_transitions[state]:
            key = (node, target)
            if key not in dist or dist[key] > d:
                dist[key] = d
                queue.appendleft(key)
        # Weight-1 moves: edge steps.
        for step, target in nfa.edge_transitions[state]:
            for successor in _edge_successors(view, node, step.direction, step.label):
                key = (successor, target)
                if key not in dist or dist[key] > d + 1:
                    dist[key] = d + 1
                    queue.append(key)
    return best


def pairs_and_distances(
    graph: PropertyGraph, nfa: NFA
) -> dict[tuple[NodeId, NodeId], int]:
    """All-pairs version: ``{(start, end): min accepted length}``."""
    view = graph.snapshot()
    result: dict[tuple[NodeId, NodeId], int] = {}
    for start in view.nodes:
        for end, distance in min_accepting_lengths(view, nfa, start).items():
            result[(start, end)] = distance
    return result


def accepted_pairs(graph: PropertyGraph, nfa: NFA) -> frozenset[tuple[NodeId, NodeId]]:
    """The RPQ answer: all ``(start, end)`` pairs connected by a path
    whose traversal word is accepted by ``nfa``."""
    return frozenset(pairs_and_distances(graph, nfa))
