"""The :class:`ClusterService` façade — sharded scatter/gather serving.

``ClusterService`` is :class:`~repro.service.service.GraphService` with
one step of the serving pipeline replaced: where the base class
*executes* each prepared query of a batch by running it whole, the
cluster *partitions its seed space* across N workers:

1. **scatter**: the :class:`~repro.cluster.partitioner.SeedPartitioner`
   splits the query's viable start nodes (pruned by the planner's
   leading-endpoint analysis) into degree-balanced cells, and each
   cell becomes one shard call against the current immutable snapshot,
   carrying the caller's trace context and remaining deadline;
2. the executor backend (serial or process) evaluates every shard of
   every query of the batch in one run, with the engine's native
   ``start_restriction`` seam;
3. **gather**: each query's shard answers are unioned in shard order —
   lossless by GPC's set semantics: disjoint seed cells produce
   disjoint answer sets whose union is exactly the unsharded answer
   set. A failing shard never aborts its siblings: every outcome is
   gathered first, then one :class:`~repro.errors.ClusterError`
   carries a :class:`~repro.cluster.backends.ShardFailure` per failed
   shard (a deadline that expired in every failed shard stays a
   :class:`~repro.errors.DeadlineExceededError`).

Snapshots, mutations, both caches, failure accounting, insights,
``explain`` and ``lint`` are the inherited ones, so answers, cache
behaviour and stats match ``GraphService`` on the same graph version
whatever the backend. Both backends return frozenset-identical
answers; the process backend adds true CPU parallelism, shipping each
snapshot once per graph version into warm workers (see
:class:`~repro.cluster.backends.ProcessBackend`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.backends import (
    ExecutorBackend,
    ShardCall,
    ShardFailure,
    make_backend,
)
from repro.cluster.partitioner import SeedPartitioner
from repro.cluster.stats import ClusterStats
from repro.errors import ClusterError, DeadlineExceededError
from repro.gpc.engine import EngineConfig
from repro.graph.property_graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.obs import InsightsRegistry, current_carrier, remaining, span
from repro.service.prepared import PreparedQuery
from repro.service.service import GraphService

__all__ = ["ClusterService"]


class ClusterService(GraphService):
    """Serve GPC queries by scatter/gather over partitioned seeds.

    The inherited pipeline admits and settles every query; only the
    execute step is the cluster's, and it sends the shards of a whole
    batch to the backend in one run.

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
        # The inherited plan cache drives seed partitioning and
        # ``explain`` without shipping anything; workers keep their own.
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

    # ------------------------------------------------------------------
    # The execute step: one scatter → one run → a gather per query
    # ------------------------------------------------------------------

    def _execute_all(self, snap: GraphSnapshot, jobs) -> None:
        """Every job sharded, all of them in one scatter.

        Each job's shard calls are made in its own context, so they
        carry its trace and deadline; every call of every job goes to
        the backend in one run, so the worker pool pipelines across
        queries; each job then gathers its own shards in its own
        context, under an ``eval`` span that adopts them. Every shard
        completes and every sibling is merged before a failure
        surfaces.
        """
        calls: list[ShardCall] = []
        windows = []
        for job in jobs:
            start = len(calls)
            calls.extend(job.run(self._scatter, job, snap) or ())
            windows.append(slice(start, len(calls)))
        # The partitioner guarantees at least one cell per query, but
        # an empty scatter (an all-hit batch, extends with no seeds, or
        # every scatter failed) must never reach the backend: on the
        # process backend run() warms the pool and ships the snapshot
        # even for zero calls.
        outcomes = (
            self.backend.run(snap, calls, delta_source=self._graph.deltas_since)
            if calls
            else []
        )
        for job, window in zip(jobs, windows):
            if job.error is None:
                job.run(self._gather, job, outcomes[window])

    def _scatter(self, job, snap: GraphSnapshot) -> list[ShardCall]:
        """One shard call per seed cell of the job's prepared query at
        ``snap`` — for an extend, one call over its seeds (none when it
        has none: the kept answers are the job's).

        Each call carries the caller's trace context (an explicit
        carrier: contextvars stop at the executor boundary) and the
        remaining request deadline, so shard evaluation is traced and
        deadline-bounded wherever it runs.
        """
        prepared = job.prepared
        seeds = job.extend[1]
        if seeds is None:
            cells = self.partitioner.partition(snap, prepared)
        else:
            cells = [seeds] if seeds else []
        # Ship what the caller sent (text stays text): workers key
        # their own plan caches by it.
        query = prepared.text if prepared.text is not None else prepared.query
        carrier, deadline_s = current_carrier(), remaining()
        return [
            ShardCall(
                query, prepared.config, cell, carrier=carrier, deadline_s=deadline_s
            )
            for cell in cells
        ]

    def _gather(self, job, outcomes) -> None:
        """Union the job's shard answers in shard order; raise once
        every shard is gathered if any failed.

        Each shard's serialised span is re-parented under the eval
        stage and its work accounted *before* the union, so a failed
        gather still leaves the shard spans in the request trace, the
        partial work in counters and every shard that ran in stats.
        """
        counters = job.seen.counters
        with span(self._span_prefix + "eval", shards=len(outcomes)) as eval_span:
            for outcome in outcomes:
                eval_span.adopt(outcome.span)
                counters.merge(outcome.counters)
            with self.stats.lock:
                self.stats.record_shards(outcomes)
            failures = [
                ShardFailure(index, outcome.worker, outcome.error)
                for index, outcome in enumerate(outcomes)
                if not outcome.ok
            ]
            if failures:
                raise _failure_error(failures)
            job.result = frozenset().union(*(outcome.result for outcome in outcomes))
            if job.extend[0]:
                job.result |= job.extend[0]

    def _plan_report(self, prepared: PreparedQuery, snap: GraphSnapshot) -> str:
        """The engine plan plus the cluster's sharding decision."""
        return (
            f"{super()._plan_report(prepared, snap)}\n"
            f"cluster: backend={self.backend.name}, "
            f"workers={self.num_workers}; "
            + self.partitioner.describe(snap, prepared)
        )

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


def _failure_error(failures: Sequence[ShardFailure]) -> Exception:
    """A :class:`ClusterError` summarising ``failures`` — or, when every
    one of them is the request's deadline expiring inside its shard, a
    :class:`DeadlineExceededError` (the request timed out; the cluster
    did not fail) — chained to the first original exception."""
    summary = f"{len(failures)} shard(s) failed: " + "; ".join(
        f.describe() for f in failures
    )
    if all(isinstance(f.error, DeadlineExceededError) for f in failures):
        error: Exception = DeadlineExceededError(summary)
    else:
        error = ClusterError(summary, failures=failures)
    error.__cause__ = failures[0].error
    return error
