"""Seed partitioning: splitting the start-node space across workers.

Scatter/gather evaluation is sound because the engine's
``start_restriction`` seam is an exact filter on answer start nodes
(:meth:`repro.gpc.engine.Evaluator.evaluate`): for any partition
``R_1 | ... | R_k`` of the node set, the per-cell answer sets are
disjoint and union losslessly to the full answer set. The partitioner's
job is therefore purely about *balance* and *work avoidance*:

- the **seed universe** of a query is the set of nodes its answers can
  possibly start from. The planner's pruned-start analysis
  (:func:`repro.gpc.planner.plan_shortest` — sound for any restrictor,
  not just ``shortest``) bounds it by the leftmost pattern's leading
  label/property constraints, resolved against the snapshot's label
  indexes (:meth:`~repro.gpc.planner.EndpointConstraint.candidate_nodes`;
  a label with no members in this version admits no node).
  Partitioning the universe instead of the whole node set keeps shards
  balanced even when only a few nodes are viable starts;
- cells are balanced by **degree weight** (``1 + deg(n)``): the work a
  seed node induces — register-NFA searches, trail expansions — grows
  with its adjacency, so classic LPT greedy assignment over degree
  weights evens out wall clock across workers far better than equal
  node counts on skewed graphs.

The partition is deterministic for a given snapshot and query, so the
merged answer set (and every per-shard answer set) is reproducible
across runs and backends.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional, Sequence

from repro.gpc import ast
from repro.gpc.planner import describe_route
from repro.graph.ids import NodeId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.snapshot import GraphSnapshot
    from repro.service.prepared import PreparedQuery

__all__ = ["SeedPartitioner", "leftmost_query"]


def leftmost_query(query: ast.Query) -> ast.PatternQuery:
    """The pattern query whose path becomes ``answer.paths[0]``.

    Join path tuples concatenate left-to-right, so the leftmost pattern
    query — the one the start restriction is defined over — is reached
    by following ``left`` links.
    """
    while isinstance(query, ast.Join):
        query = query.left
    if not isinstance(query, ast.PatternQuery):
        raise TypeError(f"not a query: {query!r}")
    return query


class SeedPartitioner:
    """Split a query's seed universe into ``num_partitions`` cells.

    Stateless apart from its configuration; one instance can partition
    for any snapshot/query combination and is safe to share.
    """

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ValueError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    # ------------------------------------------------------------------

    def seed_universe(
        self,
        view: "GraphSnapshot",
        prepared: "Optional[PreparedQuery]" = None,
    ) -> tuple[NodeId, ...]:
        """Every node some answer of the query can start from.

        Without a prepared query this is the whole node carrier. With
        one, the planner's leading-endpoint analysis bounds it: every
        match's source satisfies one of the constraint alternatives
        (the planner's soundness invariant), so nodes outside the
        candidate set can seed no answer and need not be scattered.
        """
        if prepared is None:
            return view.nodes
        pattern = leftmost_query(prepared.template).pattern
        constraint = prepared.plan.shortest_plan(pattern).start
        candidates = constraint.candidate_nodes(view, prepared.values)
        return view.nodes if candidates is None else candidates

    def shardable(self, prepared: "PreparedQuery") -> bool:
        """Whether seed partitioning can actually *divide* the work.

        Only the register-NFA route — ``shortest`` and the ``trail`` /
        ``simple`` walk — evaluates a start restriction natively
        (per-start searches outside the cell are skipped): every pattern
        whose NFA is exact. A pattern with a Section 7 wrapper, whose
        NFA over-approximates it, runs the full bounded evaluation and
        then filters: K shards would each pay the whole cost — K× the
        CPU for zero division. Those queries run as a single
        unrestricted shard instead.
        """
        pattern = leftmost_query(prepared.template).pattern
        return prepared.plan.register_nfa(pattern) is not None

    def partition(
        self,
        view: "GraphSnapshot",
        prepared: "Optional[PreparedQuery]" = None,
    ) -> "tuple[frozenset[NodeId] | None, ...]":
        """Disjoint, covering, degree-balanced cells of the universe.

        Always returns at least one cell (possibly empty) so a scatter
        still runs one task — evaluation-time validation errors must
        surface even when no seed node exists. Empty cells beyond the
        first are dropped: a shard with no seeds does no work. Queries
        the engine cannot restrict natively (see :meth:`shardable`)
        yield the single unrestricted cell ``(None,)``.
        """
        if prepared is not None and not self.shardable(prepared):
            return (None,)
        universe = self.seed_universe(view, prepared)
        cells = self._assign(view, universe)
        non_empty = tuple(cell for cell in cells if cell)
        return non_empty if non_empty else (frozenset(),)

    def _assign(
        self, view: "GraphSnapshot", universe: Sequence[NodeId]
    ) -> list[frozenset[NodeId]]:
        """LPT greedy: heaviest node to the lightest cell, with
        deterministic tie-breaks (cell index, then node order)."""
        count = min(self.num_partitions, max(1, len(universe)))
        # ``num_edges_at`` is CSR offset subtraction on columnar
        # snapshots — no adjacency tuples are materialised to weigh.
        weighted = sorted(
            ((1 + view.num_edges_at(node), node) for node in universe),
            key=lambda pair: (-pair[0], pair[1]),
        )
        heap = [(0, index) for index in range(count)]
        cells: list[set[NodeId]] = [set() for _ in range(count)]
        for weight, node in weighted:
            load, index = heapq.heappop(heap)
            cells[index].add(node)
            heapq.heappush(heap, (load + weight, index))
        return [frozenset(cell) for cell in cells]

    def describe(
        self,
        view: "GraphSnapshot",
        prepared: "Optional[PreparedQuery]" = None,
    ) -> str:
        """One-line summary used by :meth:`ClusterService.explain`."""
        cells = self.partition(view, prepared)
        if cells == (None,):
            query = leftmost_query(prepared.template)
            route, _nfa, why = prepared.plan.pattern_plan(query.pattern).route
            return (
                f"unsharded (the leftmost pattern runs "
                f"{describe_route(query.restrictor, route, why)}; "
                f"sharding would repeat that evaluation in every shard)"
            )
        universe = self.seed_universe(view, prepared)
        sizes = ", ".join(str(len(cell)) for cell in cells)
        return (
            f"seed universe {len(universe)}/{view.num_nodes} nodes; "
            f"{len(cells)} shard(s) of sizes [{sizes}]"
        )

    def __repr__(self) -> str:
        return f"SeedPartitioner(num_partitions={self.num_partitions})"
