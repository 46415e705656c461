"""Pluggable executor backends for sharded evaluation.

A backend turns a list of :class:`ShardCall`\\ s — (query, config,
seed restriction) triples against one immutable snapshot — into a list
of :class:`ShardOutcome`\\ s in the same order. Two implementations:

- :class:`SerialBackend` — in-process, sequential. The reference
  implementation used by tests and differential checks: zero
  concurrency, identical results by construction.
- :class:`ProcessBackend` — a :class:`~concurrent.futures.ProcessPoolExecutor`,
  the one parallel lane (evaluation holds the GIL, so a thread pool
  would only add hops). Snapshots are immutable and picklable,
  so the backend ships one pickled snapshot into every worker via the
  pool initializer — a warm-worker snapshot cache: while the version
  is unchanged (the mutation-light serving case), queries ship only
  their text and seed restriction, never the graph. When the version
  *advances by a small delta chain* (the mutation-heavy case), the
  backend ships the pickled :class:`~repro.graph.delta.GraphDelta`
  chain alongside the calls instead of rebuilding the pool: each
  warm worker patches its held snapshot with
  :meth:`~repro.graph.snapshot.GraphSnapshot.derive` on first sight of
  the new version and caches the result. The chain ships exactly when
  the graph itself derived the new snapshot from the pool's (their
  snapshots share a core); a graph that rebuilt, another graph or a
  missing delta log forces a full pool rebuild + snapshot re-ship.
  Workers also keep per-process prepared-plan caches, keyed by query
  shape as the service's is, so a shape is parsed/typechecked/compiled
  once per worker, not per call.

Backends never raise for a failing shard: the failure is captured in
its outcome so sibling shards complete and the cluster service can
surface the error with full context (:class:`repro.errors.ClusterError`).
"""

from __future__ import annotations

import contextvars
import os
import pickle
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.gpc import ast
from repro.gpc.answers import Answer
from repro.gpc.engine import EngineConfig
from repro.graph.delta import GraphDelta
from repro.graph.ids import NodeId
from repro.obs import EvalCounters, deadline_scope, remote_span, use_counters
from repro.service.cache import LRUCache
from repro.service.prepared import PreparedQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from typing import Callable

    from repro.cluster.stats import ClusterStats
    from repro.graph.snapshot import GraphSnapshot

    #: ``version -> contiguous delta chain to the current version``
    #: (``None`` when the bounded log no longer covers it); usually
    #: :meth:`repro.graph.property_graph.PropertyGraph.deltas_since`.
    DeltaSource = Callable[[int], Optional[tuple[GraphDelta, ...]]]

__all__ = [
    "ShardCall",
    "ShardOutcome",
    "ShardFailure",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessBackend",
    "make_backend",
]


@dataclass(frozen=True)
class ShardCall:
    """One unit of scattered work: evaluate ``query`` restricted to
    the shard's seed nodes (``None`` = unrestricted).

    ``carrier`` is the caller's trace context ``(trace_id, span_id)``
    — the explicit hand-off that lets shard spans survive the process
    boundary (contextvars do not pickle). ``deadline_s`` is the
    *remaining* request budget in seconds (monotonic deadlines are
    per-process, so the absolute deadline cannot cross either); the
    worker re-anchors it at task start, deliberately not charging
    pool queue wait against the budget.
    """

    query: "str | ast.Query"
    config: EngineConfig
    restriction: Optional[frozenset[NodeId]]
    carrier: Optional[tuple[str, str]] = None
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class ShardOutcome:
    """What came back from one shard task.

    Exactly one of ``result`` / ``error`` is set. ``worker`` tags which
    executor unit ran the task (``serial`` or a worker pid) and
    ``elapsed_s`` is in-worker evaluation time. ``span`` is the shard's
    serialised span tree (``None`` when the call carried no trace
    context) — the gatherer re-parents it into the request trace
    — and ``counters`` the shard's engine work
    (:meth:`EvalCounters.as_dict`), merged into the cluster aggregate.
    """

    result: Optional[frozenset[Answer]]
    error: Optional[Exception]
    worker: str
    elapsed_s: float
    span: Optional[dict] = None
    counters: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard: which cell, which worker, what it raised."""

    shard: int
    worker: str
    error: Exception

    def describe(self) -> str:
        return (
            f"shard {self.shard} on worker {self.worker}: "
            f"{type(self.error).__name__}: {self.error}"
        )


#: Bound on every worker-side prepared-plan cache (mirrors the
#: service-layer plan LRU default): a long-lived backend serving many
#: distinct ad-hoc query texts must not grow memory without bound.
PLAN_CACHE_CAPACITY = 256


def _evaluate_shard(
    snapshot: "GraphSnapshot",
    plans: LRUCache,
    call: ShardCall,
    worker: str,
) -> ShardOutcome:
    """Shared evaluation kernel for all backends.

    Recreates the caller's trace context from the call's carrier (the
    shard span and any engine spans under it ship home serialised in
    the outcome), applies the remaining-deadline budget, and accounts
    engine work into a per-shard :class:`EvalCounters`.
    """
    started = time.perf_counter()
    counters = EvalCounters()
    error: Optional[Exception] = None
    result: Optional[frozenset[Answer]] = None
    with remote_span("cluster.shard", call.carrier, worker=worker) as shard:
        try:
            with deadline_scope(call.deadline_s), use_counters(counters):
                prepared = PreparedQuery.cached(plans, call.query, call.config)
                result = prepared.execute(
                    snapshot, start_restriction=call.restriction
                )
        # Captured as ``ShardOutcome.error``; the gather re-raises it.
        except Exception as exc:  # lint: allow-broad-except
            error = exc
            shard.record_error(exc)
        if shard:
            shard.set_attrs(counters.as_dict())
            if result is not None:
                shard.set_attr("answers", len(result))
        shard.end()
    return ShardOutcome(
        result,
        error,
        worker,
        time.perf_counter() - started,
        span=shard.to_dict(),
        counters=counters.as_dict(),
    )


class ExecutorBackend(ABC):
    """The executor seam of :class:`~repro.cluster.service.ClusterService`."""

    #: Stable identifier used in stats, explain output and benchmarks.
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        snapshot: "GraphSnapshot",
        calls: Sequence[ShardCall],
        delta_source: "Optional[DeltaSource]" = None,
    ) -> list[ShardOutcome]:
        """Evaluate every call against ``snapshot``; outcomes align
        positionally with ``calls`` and failures are captured, never
        raised.

        ``delta_source`` (optional) lets shipping backends fetch the
        delta chain between the version their warm workers hold and
        ``snapshot.version``; in-process backends ignore it.
        """

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def bind_stats(self, stats: "ClusterStats") -> None:
        """Adopt the owning cluster's stats sink (no-op by default).

        Called by :func:`make_backend` so user-constructed backend
        instances report the same counters (snapshot ships, …) as
        string-spec ones.
        """

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutorBackend):
    """Sequential in-process execution (the differential baseline)."""

    name = "serial"

    def __init__(self):
        self._plans = LRUCache(PLAN_CACHE_CAPACITY)

    def run(self, snapshot, calls, delta_source=None):
        return [
            _evaluate_shard(snapshot, self._plans, call, self.name)
            for call in calls
        ]


# ---------------------------------------------------------------------------
# Process pool: per-worker snapshot + plan caches
# ---------------------------------------------------------------------------

#: Per-worker-process state, installed by the pool initializer: the
#: unpickled snapshot for the pool's *base* graph version, prepared
#: plans keyed by (query, config), and the latest snapshot derived
#: from a shipped delta chain (``(version, snapshot)``). Living at
#: module level makes it reachable from the picklable top-level task
#: function.
_WORKER_SNAPSHOT: "Optional[GraphSnapshot]" = None
_WORKER_DERIVED: "Optional[tuple[int, GraphSnapshot]]" = None
_WORKER_PLANS = LRUCache(PLAN_CACHE_CAPACITY)


def _init_process_worker(snapshot_blob: bytes) -> None:
    global _WORKER_SNAPSHOT, _WORKER_DERIVED
    _WORKER_SNAPSHOT = pickle.loads(snapshot_blob)
    _WORKER_DERIVED = None
    _WORKER_PLANS.clear()


def _resolve_worker_snapshot(ship) -> "GraphSnapshot":
    """The snapshot a shard task should evaluate against.

    ``ship`` is ``None`` (use the pool's base snapshot) or a
    ``(target_version, chain_blob)`` pair: the worker derives the
    target snapshot by applying the pickled delta chain, memoising the
    result so every subsequent task at that version reuses it. The
    chain is always anchored at the pool's base version, so a fresh
    worker can always derive from its base; a worker already holding
    an intermediate derived version applies only the chain *suffix*
    past it — successive small advances then cost O(step), not
    O(distance from base).
    """
    base = _WORKER_SNAPSHOT
    if ship is None:
        return base
    target_version, chain_blob = ship
    if base.version == target_version:
        return base
    global _WORKER_DERIVED
    derived = _WORKER_DERIVED
    if derived is not None and derived[0] == target_version:
        return derived[1]
    from repro.graph.snapshot import GraphSnapshot

    chain = pickle.loads(chain_blob)
    if derived is not None and base.version < derived[0] < target_version:
        suffix = tuple(d for d in chain if d.version > derived[0])
        snapshot = GraphSnapshot.derive(derived[1], suffix)
    else:
        snapshot = GraphSnapshot.derive(base, chain)
    _WORKER_DERIVED = (target_version, snapshot)
    return snapshot


def _run_process_shard(call: ShardCall, ship=None) -> ShardOutcome:
    worker = f"pid-{os.getpid()}"
    try:
        snapshot = _resolve_worker_snapshot(ship)
    # Captured as ``ShardOutcome.error``; the gather re-raises it.
    except Exception as exc:  # pragma: no cover - lint: allow-broad-except
        return ShardOutcome(None, exc, worker, 0.0)
    # A forked worker starts in a copy of the context of the thread that
    # spawned it: that request's deadline, span and counters. The shard
    # runs in an empty context and sees only what its call carries.
    return contextvars.Context().run(
        _evaluate_shard, snapshot, _WORKER_PLANS, call, worker
    )


class ProcessBackend(ExecutorBackend):
    """Process-pool execution with version-keyed snapshot shipping
    and delta shipping for small version advances.

    A pool is warmed by shipping one pickled snapshot per worker
    through the initializer. While the version is stable, ``run``
    ships only calls. When the version *advances* and the caller
    supplies a ``delta_source``, the backend ships the pickled delta
    chain (anchored at the pool's base version) alongside the calls
    and lets each warm worker derive the new snapshot in place —
    exactly when the graph itself derived that snapshot from the
    base's core (:meth:`~repro.graph.property_graph.PropertyGraph.snapshot`
    decides derive or rebuild, by its own budget). Another graph's
    snapshot, one the graph rebuilt, an older one or a chain the log
    no longer covers rebuilds the pool with a fresh snapshot.
    """

    name = "process"

    def __init__(self, max_workers: int = 4, stats: "Optional[ClusterStats]" = None):
        self._max_workers = max_workers
        self._stats = stats
        self._executor: Optional[ProcessPoolExecutor] = None
        #: The snapshot shipped through the pool initializer (the
        #: version every worker is guaranteed to hold).
        self._base_snapshot: "Optional[GraphSnapshot]" = None
        #: The exact snapshot object the warm workers can currently
        #: reach (the base, or the target of the last delta ship).
        #: Identity (not just the version number) keys the cache: a
        #: backend instance shared between services over *different*
        #: graphs at coincidentally equal versions must rebuild, and
        #: per-graph snapshots are memoised per version, so an
        #: unchanged graph always presents the identical object.
        self._pool_snapshot: "Optional[GraphSnapshot]" = None
        #: The ship riding along with every task: ``None`` (evaluate
        #: on the base) or ``(target_version, pickled delta chain)``.
        self._ship: Optional[tuple[int, bytes]] = None
        #: Pickled-bytes memo for the same snapshot: re-pickling is the
        #: expensive half of a pool rebuild.
        self._blob_snapshot: "Optional[GraphSnapshot]" = None
        self._blob: Optional[bytes] = None
        #: Guards executor lifecycle and submission: close/rebuild may
        #: not tear a pool down while another thread is submitting to
        #: it. shutdown(wait=True) under the lock still lets in-flight
        #: futures finish (workers run independently of the lock).
        self._lock = threading.RLock()

    def bind_stats(self, stats: "ClusterStats") -> None:
        if self._stats is None:
            self._stats = stats

    def _count(self, **deltas: int) -> None:
        """Bump ship counters on the bound stats sink, if any."""
        if self._stats is not None:
            with self._stats.lock:
                self._stats.add(**deltas)

    @property
    def pool_version(self) -> Optional[int]:
        """The graph version the warm workers currently serve."""
        snapshot = self._pool_snapshot
        return None if snapshot is None else snapshot.version

    def _delta_chain(
        self, snapshot, delta_source
    ) -> Optional[tuple[GraphDelta, ...]]:
        """The shippable chain from the pool base to ``snapshot``, or
        ``None`` when rebuilding is required: the graph did not derive
        ``snapshot`` from the base (another core), or the chain is
        unavailable."""
        base = self._base_snapshot
        if (
            base is None
            or delta_source is None
            or snapshot._core is not base._core
            or snapshot.version <= base.version
        ):
            return None
        deltas = delta_source(base.version)
        if deltas is None:
            return None
        # The graph may already have moved past the snapshot we were
        # handed; ship only the prefix up to the snapshot's version.
        chain = tuple(d for d in deltas if d.version <= snapshot.version)
        if (
            not chain
            or chain[0].version != base.version + 1
            or chain[-1].version != snapshot.version
        ):
            return None
        return chain

    def _ensure_executor(self, snapshot, delta_source) -> ProcessPoolExecutor:
        if self._executor is not None and self._pool_snapshot is snapshot:
            return self._executor
        if self._executor is not None:
            chain = self._delta_chain(snapshot, delta_source)
            if chain is not None:
                self._ship = (
                    snapshot.version,
                    pickle.dumps(chain, protocol=pickle.HIGHEST_PROTOCOL),
                )
                self._pool_snapshot = snapshot
                self._count(deltas_shipped=1)
                return self._executor
        self.close()
        if self._blob_snapshot is not snapshot:
            self._blob = pickle.dumps(
                snapshot, protocol=pickle.HIGHEST_PROTOCOL
            )
            self._blob_snapshot = snapshot
        self._executor = ProcessPoolExecutor(
            max_workers=self._max_workers,
            initializer=_init_process_worker,
            initargs=(self._blob,),
        )
        self._base_snapshot = snapshot
        self._pool_snapshot = snapshot
        self._ship = None
        self._count(snapshots_shipped=1)
        return self._executor

    def run(self, snapshot, calls, delta_source=None):
        with self._lock:
            executor = self._ensure_executor(snapshot, delta_source)
            ship = self._ship
            futures: list[Future] = [
                executor.submit(_run_process_shard, call, ship)
                for call in calls
            ]
        outcomes: list[ShardOutcome] = []
        for future in futures:
            try:
                outcomes.append(future.result())
            except Exception as exc:  # lint: allow-broad-except
                # Transport-level failure (e.g. a worker died), captured
                # as the shard's outcome like an evaluation error is.
                outcomes.append(ShardOutcome(None, exc, self.name, 0.0))
        return outcomes

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            self._base_snapshot = None
            self._pool_snapshot = None
            self._ship = None
        if executor is not None:
            executor.shutdown(wait=True)


def make_backend(
    spec: "str | ExecutorBackend",
    max_workers: int,
    stats: "Optional[ClusterStats]" = None,
) -> ExecutorBackend:
    """Resolve a backend spec: an instance passes through (adopting
    ``stats`` if it has none yet); the strings ``"serial"`` and
    ``"process"`` construct one.

    ``"thread"`` still resolves, to a :class:`SerialBackend`: there is
    no thread lane (evaluation holds the GIL), but the cluster pass of
    ``benchmarks/layers`` names that spec, and it goes when that pass
    names ``"serial"``."""
    if isinstance(spec, ExecutorBackend):
        if stats is not None:
            spec.bind_stats(stats)
        return spec
    if spec in ("serial", "thread"):
        return SerialBackend()
    if spec == "process":
        return ProcessBackend(max_workers, stats)
    raise ValueError(
        f"unknown backend {spec!r}; expected 'serial', 'process' "
        f"or an ExecutorBackend instance"
    )
