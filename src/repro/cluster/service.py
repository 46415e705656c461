"""The :class:`ClusterService` façade — sharded scatter/gather serving.

``ClusterService`` is :class:`~repro.service.service.GraphService` with
one step of the serving pipeline replaced: where the base class
*executes* a prepared query by running it whole, the cluster
*partitions its seed space* across N workers:

1. the :class:`~repro.cluster.partitioner.SeedPartitioner` splits the
   query's viable start nodes (pruned by the planner's leading-endpoint
   analysis) into degree-balanced cells;
2. the :class:`~repro.cluster.router.ScatterGatherRouter` turns the
   cells into shard calls against the current immutable snapshot;
3. the executor backend (serial / thread / process) evaluates every
   shard with the engine's native ``start_restriction`` seam;
4. the router unions the shard answers — lossless by GPC's set
   semantics: disjoint seed cells produce disjoint answer sets whose
   union is exactly the unsharded answer set.

Snapshots, mutations, both caches, failure accounting, insights,
``explain`` and ``lint`` are the inherited ones, so answers, cache
behaviour and stats match ``GraphService`` on the same graph version
whatever the backend. Every backend returns frozenset-identical
answers; the process backend adds true CPU parallelism, shipping each
snapshot once per graph version into warm workers (see
:class:`~repro.cluster.backends.ProcessBackend`).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.cluster.backends import ExecutorBackend, ShardCall, make_backend
from repro.cluster.partitioner import SeedPartitioner
from repro.cluster.router import ScatterGatherRouter
from repro.cluster.stats import ClusterStats
from repro.gpc.answers import Answer
from repro.gpc.engine import EngineConfig
from repro.graph.property_graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.obs import EvalCounters, InsightsRegistry, span
from repro.service.prepared import PreparedQuery
from repro.service.service import GraphService

__all__ = ["ClusterService"]


class ClusterService(GraphService):
    """Serve GPC queries by scatter/gather over partitioned seeds.

    Example
    -------
    >>> from repro import GraphBuilder
    >>> from repro.cluster import ClusterService
    >>> g = (GraphBuilder().node("a", "P").node("b", "P")
    ...      .edge("a", "b", "knows").build())
    >>> with ClusterService(g, backend="serial", num_workers=2) as cluster:
    ...     len(cluster.evaluate("TRAIL (x:P) -[:knows]-> (y:P)"))
    1
    """

    #: ``cluster.cache_probe``, ``cluster.plan``, ``cluster.eval`` (with
    #: one adopted ``cluster.shard`` per shard call under the last).
    _span_prefix = "cluster."
    _stats_type = ClusterStats

    def __init__(
        self,
        graph: Optional[PropertyGraph] = None,
        config: Optional[EngineConfig] = None,
        *,
        num_workers: int = 4,
        backend: "str | ExecutorBackend" = "process",
        partitioner: Optional[SeedPartitioner] = None,
        plan_cache_size: int = 256,
        result_cache_size: int = 4096,
        insights: "bool | InsightsRegistry" = True,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        # The inherited plan cache is the router's: it drives seed
        # partitioning and ``explain`` without shipping anything;
        # workers keep their own.
        super().__init__(
            graph,
            config,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
            insights=insights,
        )
        self.num_workers = num_workers
        self.backend = make_backend(backend, num_workers, self.stats)
        self.partitioner = (
            partitioner
            if partitioner is not None
            else SeedPartitioner(num_workers)
        )
        self.router = ScatterGatherRouter(self.stats)

    # ------------------------------------------------------------------
    # The execute step: scatter → run → gather
    # ------------------------------------------------------------------

    def _execute(
        self,
        prepared: PreparedQuery,
        snap: GraphSnapshot,
        counters: EvalCounters,
    ) -> frozenset[Answer]:
        """Scatter ``prepared`` across seed partitions, gather the
        union; ``counters`` sums the engine work of every shard."""
        with span(self._span_prefix + "eval") as eval_span:
            calls = self._scatter(prepared, snap)
            eval_span.set_attr("shards", len(calls))
            return self._gather(self._run(snap, calls), counters, eval_span)

    def _scatter(
        self, prepared: PreparedQuery, snap: GraphSnapshot
    ) -> list[ShardCall]:
        """One shard call per seed cell of ``prepared`` at ``snap``."""
        cells = self.partitioner.partition(snap, prepared)
        # Ship what the caller sent (text stays text): workers key
        # their own plan caches by it.
        query = prepared.text if prepared.text is not None else prepared.query
        return self.router.scatter(query, prepared.config, cells)

    def _run(self, snap: GraphSnapshot, calls: list[ShardCall]) -> list:
        # The partitioner guarantees at least one cell per query, but
        # an empty scatter (an all-hit batch) must never reach the
        # backend: on the process backend run() warms the pool and
        # ships the snapshot even for zero calls.
        if not calls:
            return []
        return self.backend.run(
            snap, calls, delta_source=self._graph.deltas_since
        )

    def _gather(self, outcomes, counters: EvalCounters, eval_span):
        # Re-parent each shard's serialised span under the eval stage
        # *before* gathering, so a failed gather still leaves the shard
        # spans in the request trace and the partial work in counters.
        for outcome in outcomes:
            eval_span.adopt(outcome.span)
            counters.merge(outcome.counters)
        return self.router.gather(outcomes)

    def _plan_report(self, prepared: PreparedQuery, snap: GraphSnapshot) -> str:
        """The engine plan plus the cluster's sharding decision."""
        return (
            f"{super()._plan_report(prepared, snap)}\n"
            f"cluster: backend={self.backend.name}, "
            f"workers={self.num_workers}; "
            + self.partitioner.describe(snap, prepared)
        )

    # ------------------------------------------------------------------
    # Batches: one scatter for every member
    # ------------------------------------------------------------------

    def _evaluate_all(
        self, queries, config: EngineConfig, use_cache: bool, contexts
    ) -> list:
        """Each member sharded, all members in one scatter.

        All shards of all (uncached) queries go to the backend
        together, so the worker pool pipelines across queries; every
        shard completes and sibling results are fully merged before a
        failing member surfaces. Each query's probe/scatter and gather
        stages run in its own context, so every shard span lands in
        the right request's trace and every insight cross-links the
        right trace id.
        """
        started = time.perf_counter()
        snap = self.snapshot()
        calls: list[ShardCall] = []

        def in_context(index, stage, *args):
            if contexts is None:
                return stage(*args)
            return contexts[index].run(stage, *args)

        def scatter(query):
            """Cached answers, a pre-scatter exception, or the member's
            pending state: its window into ``calls`` and what the
            gather stage records."""
            cached, cache_outcome = self._probe(query, config, snap, use_cache)
            if cached is not None:
                self._record_insight(
                    query, started, answers=len(cached), cache=cache_outcome
                )
                return cached
            try:
                with span(self._span_prefix + "plan"):
                    prepared = self.prepare(query, config)
                    shard_calls = self._scatter(prepared, snap)
            # The exception is the member's outcome, not swallowed.
            except Exception as exc:  # lint: allow-broad-except
                return exc
            window = slice(len(calls), len(calls) + len(shard_calls))
            calls.extend(shard_calls)
            estimates = self._plan_estimates(prepared, snap)
            return window, prepared, estimates, cache_outcome

        def gather(query, window, prepared, estimates, cache_outcome):
            chunk = outcomes[window]
            counters = EvalCounters()
            try:
                with span(
                    self._span_prefix + "eval", shards=len(chunk)
                ) as eval_span:
                    merged = self._gather(chunk, counters, eval_span)
            # The exception is the member's outcome, not swallowed.
            except Exception as exc:  # lint: allow-broad-except
                self._record_insight(
                    query,
                    started,
                    parsed=prepared.query,
                    cache=cache_outcome,
                    counters=counters,
                    error=exc,
                )
                return exc
            if use_cache:
                self._result_cache.put(
                    (query, config), snap.version, prepared.footprint, merged
                )
            self._record_insight(
                query,
                started,
                parsed=prepared.query,
                answers=len(merged),
                cache=cache_outcome,
                counters=counters,
                estimates=estimates,
            )
            return merged

        results = [
            in_context(index, scatter, query)
            for index, query in enumerate(queries)
        ]
        outcomes = self._run(snap, calls)
        # Members that failed before any shard ran are not counted —
        # the same accounting as `evaluate`, which raises before
        # recording.
        served = sum(not isinstance(r, Exception) for r in results)
        for index, pending in enumerate(results):
            if isinstance(pending, tuple):
                results[index] = in_context(
                    index, gather, queries[index], *pending
                )
        # One latency sample for the whole pipelined batch (per-query
        # wall clock is not separable once shards interleave).
        self.stats.latency.record(time.perf_counter() - started)
        self.stats.count(queries=served)
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the executor backend down (idempotent)."""
        super().close()
        self.backend.close()

    def __repr__(self) -> str:
        return (
            f"ClusterService(version={self.version}, "
            f"nodes={self._graph.num_nodes}, edges={self._graph.num_edges}, "
            f"backend={self.backend.name}, workers={self.num_workers}, "
            f"queries={self.stats.queries})"
        )
