"""The :class:`GraphService` façade — a query-serving runtime.

``GraphService`` owns one :class:`~repro.graph.property_graph.PropertyGraph`
and serves queries against it with every layer of reuse the engine
supports:

- **prepared queries** (plan cache): parsing, type checking and
  automaton compilation happen once per distinct ``(query, config)``;
- **versioned snapshots**: evaluation runs against the graph's
  memoised per-version :class:`~repro.graph.snapshot.GraphSnapshot`,
  so adjacency indexes are materialised once per version, not per
  call;
- **footprint-aware result cache**: answers are memoised per
  ``(query, config)`` and stamped with the graph version they were
  computed at. A mutation bumps the version, but only entries whose
  read footprint (:mod:`repro.gpc.footprint`) intersects the recorded
  mutation deltas are invalidated — footprint-disjoint entries are
  re-stamped and keep hitting across mutations;
- **concurrent batches**: :meth:`evaluate_batch` fans independent
  queries out over a thread pool (snapshots and precompiled plans are
  immutable, hence safely shared).

:class:`~repro.service.stats.ServiceStats` records cache hits, misses,
evictions and latency percentiles for observability.

Serving a query is one pipeline — snapshot → cache probe → prepare →
*execute* → cache put → observe — and :meth:`GraphService._execute` is
the step a subclass replaces: here it runs the prepared query
locally, :class:`~repro.cluster.service.ClusterService` scatters it
over seed cells and unions the parts (and, being a scatter, spreads a
batch differently and adds a line to ``explain``). Everything around
that step (mutations, caches, failure accounting, insights,
``explain``, ``lint``) exists once, in this module.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
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
from repro.service.cache import LRUCache, SemanticResultCache
from repro.service.prepared import PreparedQuery
from repro.service.stats import ServiceStats

__all__ = ["GraphService"]


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
        max_workers: int | None = None,
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
        self._max_workers = max_workers
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.RLock()
        self._last_snapshot_version: int | None = None

    # ------------------------------------------------------------------
    # Graph access and mutation (delegations bump the version)
    # ------------------------------------------------------------------

    @property
    def graph(self) -> PropertyGraph:
        """The underlying graph; mutating it invalidates caches.

        ``PropertyGraph`` itself is not thread-safe: when serving
        concurrently (e.g. during :meth:`evaluate_batch`), mutate
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
        """Parse/typecheck/compile once; memoised per (query, config).

        Both concrete-syntax strings and :mod:`repro.gpc.ast` queries
        are accepted (AST nodes are hashable, so either keys the
        cache).
        """
        config = config or self.config
        key = (query, config)
        return self._plan_cache.get_or_create(
            key, lambda: PreparedQuery(query, config)
        )

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
        counters = EvalCounters()
        started = time.perf_counter()
        try:
            result = self._execute(prepared, snap, counters)
        finally:
            # Not a served query, but its engine work is in the aggregate.
            with self.stats.lock:
                self.stats.engine.merge(counters)
        elapsed = time.perf_counter() - started
        observed = explain_counters(
            counters, answers=len(result), elapsed_s=elapsed
        )
        sections = [report, observed]
        estimates = self._plan_estimates(prepared, snap)
        if estimates is not None:
            sections.append(
                explain_estimates(
                    estimates, answers=len(result), counters=counters
                )
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
        config = config or self.config
        seen = Observation(query)
        # Snapshot first and validate cached entries against the
        # snapshot's own version: a concurrent mutation then yields a
        # version mismatch (resolved by the delta/footprint check)
        # rather than a stale entry served as current.
        snap = self.snapshot()
        result, seen.cache = self._probe(query, config, snap, use_cache)
        prepared = None
        if result is None:
            # Failures up to here (parse, typecheck) are the caller's
            # and go unobserved; from the execute step on, a failure is
            # a served query: counted, timed, and recorded with the
            # work done so far — so error rates derived from
            # ``queries`` stay honest.
            with span(self._span_prefix + "plan"):
                prepared = self.prepare(query, config)
            seen.parsed = prepared.query
            seen.estimates = self._plan_estimates(prepared, snap)
            seen.counters = EvalCounters()
        # The pipeline's single exit: whatever happens from here on —
        # a hit, computed answers, or the execute step raising — is
        # observed exactly once, and a failure propagates untouched.
        try:
            if prepared is not None:
                result = self._execute(prepared, snap, seen.counters)
                if use_cache:
                    self._result_cache.put(
                        (query, config), snap.version, prepared.footprint, result
                    )
            return result
        except Exception as exc:
            seen.error = exc
            raise
        finally:
            self._observe(seen.finish(result))

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

    def _probe(
        self, query, config: EngineConfig, snap: GraphSnapshot, use_cache: bool
    ) -> "tuple[frozenset[Answer] | None, str]":
        """The pipeline's result-cache step: ``(answers, outcome)`` at
        ``snap``'s version, with ``answers`` ``None`` unless the
        outcome is a hit, a restamp or a refilter."""
        if not use_cache:
            return None, self._result_cache.bypass()
        with span(self._span_prefix + "cache_probe") as probe:
            cached, outcome = self._result_cache.get_with_outcome(
                (query, config), snap.version
            )
            probe.set_attr("hit", cached is not None)
        return cached, outcome

    def _execute(
        self,
        prepared: PreparedQuery,
        snap: GraphSnapshot,
        counters: EvalCounters,
    ) -> frozenset[Answer]:
        """The pipeline's execute step: the answers of ``prepared`` at
        ``snap``, with the engine work they cost accounted into
        ``counters`` (also when it raises — the caller observes partial
        work) and — when a trace is active — onto the ``eval`` span.
        Here: one local run.
        """
        with span(self._span_prefix + "eval") as eval_span:
            try:
                with use_counters(counters):
                    result = prepared.execute(snap)
            finally:
                if eval_span:
                    eval_span.set_attrs(counters.as_dict())
            eval_span.set_attr("answers", len(result))
        return result

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

    def _observe(self, seen: Observation) -> None:
        """The pipeline's one exit: fold a finished evaluation into the
        service aggregate (one ``stats.lock`` round-trip) and into its
        fingerprint's entry."""
        stats = self.stats
        with stats.lock:
            stats.queries += 1
            stats.latency.record(seen.latency_s)
            stats.engine.merge(seen.counters)
        self._record_insight(seen)

    def _record_insight(self, seen: Observation) -> None:
        """Fold ``seen`` into the insights registry, cross-linked with
        the trace that is active in the calling context.

        Stamps the fingerprint onto the active root span so slow-log
        entries in the trace store cross-link to ``GET /insights``.
        """
        root = current_span()
        if root:
            seen.trace_id = root.trace_id
        fingerprint = self.insights.record(seen)
        if root and fingerprint is not None:
            root.set_attr("fingerprint", fingerprint)

    def evaluate_batch(
        self,
        queries: Sequence[str | ast.Query],
        config: EngineConfig | None = None,
        *,
        use_cache: bool = True,
        return_exceptions: bool = False,
        contexts: "Sequence[contextvars.Context] | None" = None,
    ) -> list[frozenset[Answer]]:
        """Evaluate independent queries concurrently.

        Returns results in input order. Every query is evaluated
        against the same graph snapshot semantics as
        :meth:`evaluate` (answers are frozensets, so the outcome is
        deterministic regardless of thread scheduling).

        A raising query never takes its siblings down: every member is
        run to completion before anything is re-raised, so sibling
        results are cached and their stats recorded. With
        ``return_exceptions=True`` the failing positions hold the
        exception object (so callers keep sibling results); otherwise
        the first failure is raised after the full drain.

        ``contexts`` (one :class:`contextvars.Context` per query)
        carries each caller's ambient state — active trace span,
        deadline — across the executor boundary: pool threads inherit
        the *pool creator's* context, not the submitter's, so without
        this the coalescer's per-request spans would detach. Each
        context must be a distinct copy (a Context cannot be entered
        concurrently).
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
        outcomes = self._evaluate_all(
            queries, config or self.config, use_cache, contexts
        )
        if not return_exceptions:
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
        return outcomes

    def _evaluate_all(
        self, queries, config: EngineConfig, use_cache: bool, contexts
    ) -> list:
        """One outcome — answers or the exception raised — per query of
        a non-empty batch, in input order. Here: :meth:`evaluate` per
        query — on the thread pool, or in the calling thread when the
        batch has one member (a pool hop would only add a wait)."""
        calls = [
            partial(self.evaluate, query, config, use_cache=use_cache)
            for query in queries
        ]
        if contexts is not None:
            calls = [
                partial(ctx.run, call) for ctx, call in zip(contexts, calls)
            ]
        if len(calls) > 1:
            # Submit inside the same lock window that resolves the
            # executor: close() swaps the executor out under this lock
            # and only then shuts it down, so a concurrent close can
            # never invalidate the pool between _ensure_executor and
            # submit ("cannot schedule new futures after shutdown").
            # close(wait=True) still lets everything submitted here run
            # to completion.
            with self._lock:
                executor = self._ensure_executor()
                calls = [executor.submit(call).result for call in calls]
        outcomes: list = []
        for call in calls:
            try:
                outcomes.append(call())
            # The exception is the member's outcome, not swallowed.
            except Exception as exc:  # lint: allow-broad-except
                outcomes.append(exc)
        return outcomes

    # ------------------------------------------------------------------
    # Lifecycle / maintenance
    # ------------------------------------------------------------------

    def clear_caches(self) -> None:
        """Drop every cached plan and result (stats are kept)."""
        self._plan_cache.clear()
        self._result_cache.clear()

    def close(self) -> None:
        """Shut the batch thread pool down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="gpc-service",
                )
            return self._executor

    def __repr__(self) -> str:
        return (
            f"GraphService(version={self.version}, "
            f"nodes={self._graph.num_nodes}, edges={self._graph.num_edges}, "
            f"queries={self.stats.queries})"
        )
