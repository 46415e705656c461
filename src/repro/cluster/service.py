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
from repro.obs import EvalCounters, InsightsRegistry, Observation, span
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
        self.router = ScatterGatherRouter()

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
        # and account its work *before* gathering, so a failed gather
        # still leaves the shard spans in the request trace, the
        # partial work in counters and every shard that ran in stats.
        for outcome in outcomes:
            eval_span.adopt(outcome.span)
            counters.merge(outcome.counters)
        with self.stats.lock:
            self.stats.record_shards(outcomes)
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
            """The member's observation so far — finished if the cache
            answered — or the exception that stopped it before any
            shard ran. ``pending`` holds what the gather stage needs."""
            seen = Observation(query, started)
            cached, seen.cache = self._probe(query, config, snap, use_cache)
            if cached is not None:
                return seen.finish(cached), cached
            try:
                with span(self._span_prefix + "plan"):
                    prepared = self.prepare(query, config)
                    shard_calls = self._scatter(prepared, snap)
            # The exception is the member's outcome, not swallowed.
            except Exception as exc:  # lint: allow-broad-except
                return None, exc
            seen.parsed = prepared.query
            seen.estimates = self._plan_estimates(prepared, snap)
            seen.counters = EvalCounters()
            window = slice(len(calls), len(calls) + len(shard_calls))
            calls.extend(shard_calls)
            return seen, (window, prepared)

        def gather(query, seen, window, prepared):
            chunk = outcomes[window]
            try:
                with span(
                    self._span_prefix + "eval", shards=len(chunk)
                ) as eval_span:
                    merged = self._gather(chunk, seen.counters, eval_span)
            # The exception is the member's outcome, not swallowed.
            except Exception as exc:  # lint: allow-broad-except
                seen.error = exc
                seen.finish()
                return exc
            if use_cache:
                self._result_cache.put(
                    (query, config), snap.version, prepared.footprint, merged
                )
            seen.finish(merged)
            return merged

        members = [
            in_context(index, scatter, query)
            for index, query in enumerate(queries)
        ]
        outcomes = self._run(snap, calls)
        results = []
        for index, (seen, pending) in enumerate(members):
            if isinstance(pending, tuple):
                pending = in_context(
                    index, gather, queries[index], seen, *pending
                )
            results.append(pending)
        # The batch's single exit. Members that failed before any shard
        # ran carry no observation and are not counted — the same
        # accounting as `evaluate`, which raises before observing.
        self._observe_batch(members, contexts, time.perf_counter() - started)
        return results

    def _observe_batch(self, members, contexts, elapsed_s: float) -> None:
        """The batch pipeline's one exit: fold it into the aggregate —
        one latency sample for the whole of it, per-query wall clock
        not being separable once shards interleave — and each observed
        member into its fingerprint's entry, in the member's own
        context so the insight cross-links the right trace id."""
        observed = [
            (index, seen)
            for index, (seen, _) in enumerate(members)
            if seen is not None
        ]
        stats = self.stats
        with stats.lock:
            stats.queries += len(observed)
            stats.latency.record(elapsed_s)
            for _, seen in observed:
                stats.engine.merge(seen.counters)
        for index, seen in observed:
            if contexts is None:
                self._record_insight(seen)
            else:
                contexts[index].run(self._record_insight, seen)

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
