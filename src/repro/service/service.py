"""The :class:`GraphService` façade — a query-serving runtime.

``GraphService`` owns one :class:`~repro.graph.property_graph.PropertyGraph`
and serves queries against it with every layer of reuse the engine
supports:

- **prepared queries** (plan cache): parsing, type checking, analysis
  and automaton compilation happen once per ``(shape, config)`` — texts
  that differ only in condition constants share one plan, bound to
  each text's constants (:mod:`repro.service.prepared`);
- **versioned snapshots**: evaluation runs against the graph's
  memoised per-version :class:`~repro.graph.snapshot.GraphSnapshot`,
  so adjacency indexes are materialised once per version, not per
  call;
- **footprint-aware result cache**: answers are memoised per
  ``(query, config)`` and stamped with the graph version they were
  computed at. A mutation bumps the version, but only entries whose
  read footprint (:mod:`repro.gpc.footprint`) intersects the recorded
  mutation deltas are invalidated — footprint-disjoint entries are
  re-stamped and keep hitting across mutations, and path-local entries
  are refiltered by removals and extended by additions (the execute
  step then runs only from the seeds near the added elements);
- **batches**: :meth:`evaluate_batch` runs its members against one
  snapshot, in the calling thread (under the GIL a pool gains nothing;
  parallelism lives in the cluster backends).

:class:`~repro.service.stats.ServiceStats` records cache hits, misses,
evictions and latency percentiles for observability.

Serving is one pipeline, staged once for a batch of any size (a lone
:meth:`evaluate` is a batch of one): *admit* — one snapshot, then per
member the cache probe and, on a miss, prepare, estimates and counters
— then :meth:`GraphService._execute_all` for every admitted miss, then
*settle* — cache put, finish and observe. The execute step is the one
a subclass replaces: here it runs each prepared query locally,
:class:`~repro.cluster.service.ClusterService` scatters all of them
over seed cells in one backend run and gathers each member's union
(and adds a line to ``explain``). Everything around that step
(mutations, caches, failure accounting, insights, ``explain``,
``lint``) exists once, in this module.
"""

from __future__ import annotations

import contextvars
import threading
import time
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.gpc import ast
from repro.gpc.answers import Answer
from repro.gpc.engine import DEFAULT_CONFIG, EngineConfig
from repro.graph.ids import (
    DirectedEdgeId,
    GraphElementId,
    NodeId,
    UndirectedEdgeId,
)
from repro.graph.property_graph import Constant, PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.errors import GPCError
from repro.gpc.analysis import lint_query
from repro.gpc.explain import explain_counters, explain_estimates
from repro.obs import (
    EvalCounters,
    InsightsRegistry,
    Observation,
    current_span,
    span,
    use_counters,
)
from repro.service.cache import LRUCache, SemanticResultCache, extension_seeds
from repro.service.prepared import PreparedQuery
from repro.service.stats import ServiceStats

__all__ = ["GraphService"]


class _Job:
    """One query of a served batch on its way through the pipeline.

    ``seen`` is its observation, ``context`` the
    :class:`contextvars.Context` its stages run in (``None``: the
    caller's), ``prepared`` its prepared query once admitted past a
    cache miss or extend, ``extend`` the ``(kept, seeds)`` its answers
    are made of — the kept answers plus its execution restricted to the
    start nodes ``seeds`` (``None``: every node) — and ``result`` /
    ``error`` its outcome.
    """

    __slots__ = ("seen", "context", "prepared", "extend", "result", "error")

    def __init__(self, seen: Observation, context=None, prepared=None):
        self.seen = seen
        self.context: contextvars.Context | None = context
        self.prepared: PreparedQuery | None = prepared
        self.extend: tuple[frozenset[Answer], frozenset | None] = (frozenset(), None)
        self.result: frozenset[Answer] | None = None
        self.error: Exception | None = None

    def run(self, stage, *args):
        """``stage(*args)`` in the job's context; what it raises becomes
        the job's ``error`` (and the return value ``None``)."""
        try:
            if self.context is None:
                return stage(*args)
            return self.context.run(stage, *args)
        # The exception is the member's outcome, not swallowed.
        except Exception as exc:  # lint: allow-broad-except
            self.error = exc


class GraphService:
    """Serve GPC queries over one (mutable, versioned) property graph.

    Example
    -------
    >>> from repro import GraphBuilder
    >>> from repro.service import GraphService
    >>> g = (GraphBuilder().node("a", "P").node("b", "P")
    ...      .edge("a", "b", "knows").build())
    >>> service = GraphService(g)
    >>> len(service.evaluate("TRAIL (x:P) -[:knows]-> (y:P)"))
    1
    >>> service.stats.result_cache.misses
    1
    >>> _ = service.evaluate("TRAIL (x:P) -[:knows]-> (y:P)")  # cache hit
    >>> service.stats.result_cache.hits
    1
    """

    #: Prefix of every span the pipeline opens (``service.cache_probe``,
    #: ``service.plan``, ``service.eval``); a subclass re-labels its
    #: traces by overriding it.
    _span_prefix = "service."
    #: The stats record this façade fills.
    _stats_type = ServiceStats

    def __init__(
        self,
        graph: PropertyGraph | None = None,
        config: EngineConfig | None = None,
        *,
        plan_cache_size: int = 256,
        result_cache_size: int = 4096,
        insights: bool | InsightsRegistry = True,
    ):
        self._graph = graph if graph is not None else PropertyGraph()
        self.config = config or DEFAULT_CONFIG
        self.stats = self._stats_type()
        # ``insights`` accepts a pre-built registry (shared or tuned)
        # or a bool; a disabled registry keeps record() a cheap no-op
        # so call sites never branch.
        if isinstance(insights, InsightsRegistry):
            self.insights = insights
        else:
            self.insights = InsightsRegistry(enabled=bool(insights))
        self.stats.insights = self.insights.stats
        self._plan_cache = LRUCache(plan_cache_size, self.stats.plan_cache)
        self._result_cache = SemanticResultCache(
            result_cache_size,
            self.stats.result_cache,
            delta_source=self._graph.deltas_since,
        )
        self._lock = threading.RLock()
        self._last_snapshot_version: int | None = None

    # ------------------------------------------------------------------
    # Graph access and mutation (delegations bump the version)
    # ------------------------------------------------------------------

    @property
    def graph(self) -> PropertyGraph:
        """The underlying graph; mutating it invalidates caches.

        ``PropertyGraph`` itself is not thread-safe: when serving
        concurrently (e.g. behind a server), mutate
        through the service's delegating methods below — they hold the
        service lock, so snapshot construction never observes a
        half-applied mutation.
        """
        return self._graph

    @property
    def version(self) -> int:
        """The graph's current version (changes on every mutation)."""
        return self._graph.version

    def snapshot(self) -> GraphSnapshot:
        """The memoised snapshot of the current graph version.

        Small version steps are served by incremental delta derivation
        (:meth:`GraphSnapshot.derive`); ``stats.snapshots_derived``
        counts how many of the ``snapshots_built`` took that path.
        """
        with self._lock:
            snap = self._graph.snapshot()
            if snap.version != self._last_snapshot_version:
                self._last_snapshot_version = snap.version
                with self.stats.lock:
                    self.stats.add(
                        snapshots_built=1,
                        snapshots_derived=1 if snap.derived else 0,
                        snapshot_build_s=snap.build_s,
                        csr_rows_patched=snap.csr_rows_patched,
                    )
            return snap

    def add_node(
        self,
        key: Hashable,
        labels: Iterable[str] = (),
        properties: Mapping[str, Constant] | None = None,
    ) -> NodeId:
        with self._lock:
            return self._graph.add_node(key, labels, properties)

    def add_edge(
        self,
        key: Hashable,
        source: NodeId,
        target: NodeId,
        labels: Iterable[str] = (),
        properties: Mapping[str, Constant] | None = None,
    ) -> DirectedEdgeId:
        with self._lock:
            return self._graph.add_edge(
                key, source, target, labels, properties
            )

    def add_undirected_edge(
        self,
        key: Hashable,
        endpoint_a: NodeId,
        endpoint_b: NodeId,
        labels: Iterable[str] = (),
        properties: Mapping[str, Constant] | None = None,
    ) -> UndirectedEdgeId:
        with self._lock:
            return self._graph.add_undirected_edge(
                key, endpoint_a, endpoint_b, labels, properties
            )

    def set_property(
        self, element: GraphElementId, key: str, value: Constant
    ) -> None:
        with self._lock:
            self._graph.set_property(element, key, value)

    def remove_node(self, node: NodeId) -> None:
        with self._lock:
            self._graph.remove_node(node)

    def remove_edge(self, edge: DirectedEdgeId) -> None:
        with self._lock:
            self._graph.remove_edge(edge)

    def remove_undirected_edge(self, edge: UndirectedEdgeId) -> None:
        with self._lock:
            self._graph.remove_undirected_edge(edge)

    # ------------------------------------------------------------------
    # Prepared queries (plan cache)
    # ------------------------------------------------------------------

    def prepare(
        self, query: str | ast.Query, config: EngineConfig | None = None
    ) -> PreparedQuery:
        """Parse/typecheck/compile once per shape and config.

        A concrete-syntax string is keyed by its shape
        (:func:`~repro.gpc.parser.query_shape`): the first text of a
        shape is parsed and compiled, a later one is bound to that plan
        with its own constants. A :mod:`repro.gpc.ast` query keys the
        cache itself (AST nodes are hashable) with no constants lifted.
        """
        return PreparedQuery.cached(self._plan_cache, query, config or self.config)

    def explain(
        self,
        query: str | ast.Query,
        config: EngineConfig | None = None,
        *,
        analyze: bool = False,
    ) -> str:
        """The planner's strategy summary for ``query`` against the
        current graph version (joins, shared variables, cardinality
        estimates, ``shortest`` start/end pruning).

        ``analyze=True`` additionally *runs* the query through the
        pipeline's execute step (cache-bypassed) and appends the
        observed execution counters — answer count, elapsed time,
        NFA/join/deepening work — so the planner's estimates can be
        compared against what actually happened.
        """
        prepared = self.prepare(query, config)
        snap = self.snapshot()
        report = self._plan_report(prepared, snap)
        if not analyze:
            return report
        job = _Job(Observation(query), prepared=prepared)
        counters = job.seen.counters = EvalCounters()
        self._execute_all(snap, [job])
        elapsed = job.seen.finish().latency_s
        # Not a served query, but its engine work is in the aggregate.
        with self.stats.lock:
            self.stats.engine.merge(counters)
        if job.error is not None:
            raise job.error
        answers = len(job.result)
        sections = [
            report,
            explain_counters(counters, answers=answers, elapsed_s=elapsed),
        ]
        estimates = self._plan_estimates(prepared, snap)
        if estimates is not None:
            sections.append(
                explain_estimates(estimates, answers=answers, counters=counters)
            )
        return "\n".join(sections)

    def _plan_report(self, prepared: PreparedQuery, snap: GraphSnapshot) -> str:
        """The strategy summary :meth:`explain` opens with."""
        return prepared.explain(snap)

    def lint(
        self, query: str | ast.Query, config: EngineConfig | None = None
    ):
        """Static-analysis diagnostics for ``query``, without touching
        the graph.

        Total: queries that fail to parse or typecheck yield an error
        diagnostic (``GPC000`` / ``GPC001``) instead of raising, so the
        caller can lint untrusted input in one call. Well-formed
        queries go through the (plan-cached) prepared query, so linting
        a query that will later be evaluated costs nothing extra.
        Returns a tuple of :class:`~repro.gpc.analysis.Diagnostic`.
        """
        try:
            prepared = self.prepare(query, config)
        except GPCError:
            return lint_query(query)
        return prepared.diagnostics

    # ------------------------------------------------------------------
    # Evaluation (result cache + snapshots)
    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: str | ast.Query,
        config: EngineConfig | None = None,
        *,
        use_cache: bool = True,
    ) -> frozenset[Answer]:
        """Evaluate ``query`` against the current graph version.

        Results are set-identical to one-shot
        ``Evaluator(graph, config).evaluate(parse_query(query))``; the
        service merely amortises compilation (plan cache), adjacency
        materialisation (snapshot memo) and repeated evaluation
        (result cache). Cached entries survive mutations whose deltas
        are disjoint from the query's read footprint — the semantic
        check proves the answers unchanged before re-serving them.
        """
        [outcome] = self._serve([query], config or self.config, use_cache)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def rendered(
        self,
        query: str | ast.Query,
        answers: frozenset[Answer],
        render: Callable[[frozenset[Answer]], bytes] | None = None,
    ) -> bytes | None:
        """A byte form of ``answers`` kept beside them in the result
        cache, so a front end serialises a cached answer set once.

        ``answers`` must be what :meth:`evaluate` returned for
        ``query`` (under the service's own config): the cached entry's
        bytes are served — or, with ``render``, made by
        ``render(answers)`` and kept — only while the entry holds that
        very frozenset, so they live exactly as long as it does (a
        restamp keeps them; invalidation, eviction and
        :meth:`clear_caches` drop them). Without ``render``, the kept
        bytes or ``None``. See
        :meth:`~repro.service.cache.SemanticResultCache.rendered`.
        """
        return self._result_cache.rendered(
            (query, self.config), answers, render
        )

    def etag(self, query: str | ast.Query, answers: frozenset[Answer]) -> str | None:
        """The digest of the bytes :meth:`rendered` keeps for ``answers``,
        or ``None`` while none are kept: equal digests, equal answer sets
        (:meth:`~repro.service.cache.SemanticResultCache.etag`)."""
        return self._result_cache.etag((query, self.config), answers)

    def _plan_estimates(self, prepared: PreparedQuery, snap: GraphSnapshot):
        """The planner's pre-execution estimates, or ``None``.

        ``None`` both when insights are disabled (skip the work) and
        when estimation rejects the query shape — estimates feed
        observability only and must never fail an evaluation.
        """
        if not self.insights.enabled:
            return None
        try:
            return prepared.estimates(snap)
        # Whatever estimation raised is dropped on purpose; a deadline
        # that expired here resurfaces in the execute step.
        except Exception:  # lint: allow-broad-except
            return None

    def evaluate_batch(
        self,
        queries: Sequence[str | ast.Query],
        config: EngineConfig | None = None,
        *,
        use_cache: bool = True,
        return_exceptions: bool = False,
        contexts: "Sequence[contextvars.Context] | None" = None,
    ) -> list[frozenset[Answer]]:
        """Evaluate independent queries, in the calling thread.

        Returns results in input order. Every member is evaluated
        against one snapshot, with the same answers as :meth:`evaluate`
        and the same accounting: one ``queries`` count and one latency
        sample per observed member, timed from the batch's start to
        its answer.

        A raising query never takes its siblings down: every member is
        run to completion before anything is re-raised, so sibling
        results are cached and their stats recorded. With
        ``return_exceptions=True`` the failing positions hold the
        exception object (so callers keep sibling results); otherwise
        the first failure is raised after the full drain.

        ``contexts`` (one :class:`contextvars.Context` per query)
        carries each caller's ambient state — active trace span,
        deadline — into its member: every stage of a member runs in
        its own context, so spans and insights land in the right
        request's trace. A context must not be the one already running
        in the calling thread (a Context cannot be entered twice).
        """
        if contexts is not None and len(contexts) != len(queries):
            raise ValueError(
                f"contexts ({len(contexts)}) must match "
                f"queries ({len(queries)})"
            )
        with self.stats.lock:
            self.stats.batches += 1
        if not queries:
            return []
        outcomes = self._serve(
            queries, config or self.config, use_cache, contexts
        )
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
        return outcomes

    # ------------------------------------------------------------------
    # The pipeline: admit → execute → settle
    # ------------------------------------------------------------------

    def _serve(
        self, queries, config: EngineConfig, use_cache: bool, contexts=None
    ) -> list:
        """One outcome — answers or the exception raised — per query of
        a non-empty batch, in input order.

        Failures up to the execute step (parse, typecheck) are the
        caller's and go unobserved; from the execute step on, a failure
        is a served query: counted, timed, and recorded with the work
        done so far — so error rates derived from ``queries`` stay
        honest. Every admitted member is observed exactly once.
        """
        started = time.perf_counter()
        # Snapshot first and validate cached entries against the
        # snapshot's own version: a concurrent mutation then yields a
        # version mismatch (resolved by the delta/footprint check)
        # rather than a stale entry served as current.
        snap = self.snapshot()
        contexts = contexts or [None] * len(queries)
        jobs = [
            _Job(Observation(query, started), context)
            for query, context in zip(queries, contexts)
        ]
        for job in jobs:
            job.run(self._admit, job, config, snap, use_cache)
        admitted = [job for job in jobs if job.error is None]
        self._execute_all(
            snap, [job for job in admitted if job.prepared is not None]
        )
        for job in admitted:
            job.run(self._settle, job, config, snap.version, use_cache)
        return [job.result if job.error is None else job.error for job in jobs]

    def _admit(
        self, job: _Job, config: EngineConfig, snap: GraphSnapshot, use_cache: bool
    ) -> None:
        """The cache probe at ``snap``'s version and, unless it answers
        (a hit, a restamp or a refilter), prepare, estimates and a
        fresh counter set. An extend also takes its seeds here. The
        fingerprint comes from the entry the probe found, or else from
        the prepared query."""
        seen = job.seen
        if not use_cache:
            seen.cache = self._result_cache.bypass()
        else:
            with span(self._span_prefix + "cache_probe") as probe:
                job.result, seen.cache, extension, seen.fingerprint = (
                    self._result_cache.get_with_outcome((seen.query, config), snap.version)
                )
                hit = job.result is not None or extension is not None
                probe.set_attrs({"hit": hit, "outcome": seen.cache})
                if extension is not None:
                    kept, touched, hops = extension
                    job.extend = kept, extension_seeds(snap, touched, hops)
                    probe.set_attr("seeds", len(job.extend[1]))
        if job.result is None:
            with span(self._span_prefix + "plan"):
                job.prepared = self.prepare(seen.query, config)
            seen.fingerprint = job.prepared.fingerprint
            seen.estimates = self._plan_estimates(job.prepared, snap)
            seen.counters = EvalCounters()

    def _execute_all(self, snap: GraphSnapshot, jobs: list[_Job]) -> None:
        """The pipeline's execute step, the one a subclass replaces: give
        every job the answers of its prepared query at ``snap`` — for an
        extend, its kept answers plus the query's answers from its seeds
        — or the error that stopped it — with the engine work they cost
        accounted into ``job.seen.counters`` (also on failure: the job
        is observed with its partial work) and, when a trace is active,
        onto an ``eval`` span in the job's context. Here: one local run
        per job, in turn."""
        for job in jobs:
            job.run(self._run_local, job, snap)

    def _run_local(self, job: _Job, snap: GraphSnapshot) -> None:
        counters = job.seen.counters
        with span(self._span_prefix + "eval") as eval_span:
            try:
                with use_counters(counters):
                    kept, seeds = job.extend
                    answers = job.prepared.execute(snap, start_restriction=seeds)
                    job.result = kept | answers if kept else answers
            finally:
                if eval_span:
                    eval_span.set_attrs(counters.as_dict())
            eval_span.set_attr("answers", len(job.result))

    def _settle(
        self, job: _Job, config: EngineConfig, version: int, use_cache: bool
    ) -> None:
        """Cache a computed answer set, then observe the job."""
        seen = job.seen
        seen.error = job.error
        if use_cache and job.prepared is not None and job.error is None:
            job.result = self._result_cache.put(
                (seen.query, config), version, job.prepared.footprint, job.result,
                job.prepared.fingerprint,
            )
        self._observe(seen.finish(job.result))

    def _observe(self, seen: Observation) -> None:
        """Fold a finished evaluation into the service aggregate (one
        ``stats.lock`` round-trip) and into its fingerprint's entry,
        cross-linked with the trace active in the calling context: the
        fingerprint is stamped onto the active root span so slow-log
        entries in the trace store cross-link to ``GET /insights``."""
        stats = self.stats
        with stats.lock:
            stats.queries += 1
            stats.latency.record(seen.latency_s)
            stats.engine.merge(seen.counters)
        root = current_span()
        if root:
            seen.trace_id = root.trace_id
        fingerprint = self.insights.record(seen)
        if root and fingerprint is not None:
            root.set_attr("fingerprint", fingerprint)

    # ------------------------------------------------------------------
    # Lifecycle / maintenance
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop every cached plan and result (stats are kept)."""
        self._plan_cache.clear()
        self._result_cache.clear()

    def close(self) -> None:
        """Release what serving holds (idempotent): nothing here, the
        pipeline running in its caller's thread; a subclass that owns
        workers shuts them down."""

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"GraphService(version={self.version}, "
            f"nodes={self._graph.num_nodes}, edges={self._graph.num_edges}, "
            f"queries={self.stats.queries})"
        )
