"""Serving metrics for the query-service runtime.

:class:`ServiceStats` aggregates cache hit/miss/eviction counters, a
bounded latency reservoir with percentile estimation, and coarse
throughput counters. The plain numeric counters are bumped through
:meth:`ServiceStats.count` (one lock, any number of fields per call),
so the recorded numbers stay consistent under concurrent batch
evaluation; :class:`~repro.cluster.stats.ClusterStats` extends the
same record with its per-shard section.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

from repro.obs.counters import EvalCounters

__all__ = ["CacheStats", "LatencyRecorder", "ServiceStats"]

#: Fixed histogram bucket upper bounds (seconds), Prometheus-style:
#: sub-millisecond through ten seconds in a 1-2.5-5 progression.
LATENCY_BUCKETS_S = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


@dataclass
class CacheStats:
    """Hit/miss/eviction/bypass counters for one cache.

    ``bypasses`` counts requests that deliberately skipped the cache
    (e.g. ``evaluate(use_cache=False)``). They are *not* lookups: a
    bypass never probed the cache, so counting it as a miss would
    silently drag ``hit_rate`` down.

    The footprint-aware result cache adds three counters:
    ``restamps`` — stale entries proven untouched by the interleaving
    mutations and re-stamped to the new version (these also count as
    hits); ``invalidations`` — stale entries dropped because their
    footprint intersected the mutations (these also count as misses);
    ``dedup_waits`` — ``get_or_create`` callers that waited on another
    thread's in-flight factory instead of running it again.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    restamps: int = 0
    invalidations: int = 0
    dedup_waits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "restamps": self.restamps,
            "invalidations": self.invalidations,
            "dedup_waits": self.dedup_waits,
            "hit_rate": self.hit_rate,
        }


class LatencyRecorder:
    """A bounded reservoir of recent latencies with percentiles.

    Keeps the most recent ``capacity`` samples (seconds). Percentiles
    use the nearest-rank method over the retained window — adequate
    for serving dashboards without unbounded memory.
    """

    def __init__(self, capacity: int = 4096):
        self._samples: deque[float] = deque(maxlen=capacity)
        self._count = 0
        self._total = 0.0
        #: All-time fixed-bucket counts (non-cumulative, one slot per
        #: LATENCY_BUCKETS_S bound plus a final +Inf overflow slot) —
        #: unlike the reservoir these never forget, so the /metrics
        #: histograms remain monotone counters as Prometheus expects.
        self._buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        index = bisect_left(LATENCY_BUCKETS_S, seconds)
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._total += seconds
            self._buckets[index] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) of the window."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            window = sorted(self._samples)
        return _nearest_rank(window, p)

    def summary(self) -> dict[str, float]:
        """A consistent one-shot summary.

        Takes a single locked copy of the reservoir and sorts it once;
        mean and every percentile are derived from that same copy, so
        the summary is internally consistent even under concurrent
        ``record`` calls (and three times cheaper than re-locking and
        re-sorting per percentile).

        ``mean_s`` and the percentiles all describe the *retained
        window* — once the reservoir wraps, an all-time mean next to
        windowed percentiles would mix two populations and drift apart
        from them. The all-time figures stay available under their own
        keys: ``count`` / ``total_s`` (with ``window`` saying how many
        samples the distribution figures summarise).
        """
        with self._lock:
            window = sorted(self._samples)
            count = self._count
            total = self._total
        retained = len(window)
        return {
            "count": count,
            "total_s": total,
            "window": retained,
            "mean_s": sum(window) / retained if retained else 0.0,
            "p50_s": _nearest_rank(window, 50),
            "p90_s": _nearest_rank(window, 90),
            "p99_s": _nearest_rank(window, 99),
        }

    def histogram(self) -> dict[str, object]:
        """All-time fixed-bucket counts for Prometheus exposition.

        ``buckets`` pairs each :data:`LATENCY_BUCKETS_S` upper bound
        with its (non-cumulative) count; samples above the largest
        bound are only reflected in ``count``. The renderer
        (:func:`repro.obs.metrics.histogram_lines`) accumulates and
        adds the ``+Inf`` bucket.
        """
        with self._lock:
            counts = list(self._buckets)
            count = self._count
            total = self._total
        return {
            "buckets": [
                (bound, counts[i]) for i, bound in enumerate(LATENCY_BUCKETS_S)
            ],
            "sum": total,
            "count": count,
        }


def _nearest_rank(window: list[float], p: float) -> float:
    """Nearest-rank percentile over an already-sorted window."""
    if not window:
        return 0.0
    rank = max(1, -(-len(window) * p // 100))  # ceil without floats
    return window[int(rank) - 1]


@dataclass
class ServiceStats:
    """Aggregate metrics exposed by :class:`GraphService.stats`."""

    plan_cache: CacheStats = field(default_factory=CacheStats)
    result_cache: CacheStats = field(default_factory=CacheStats)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    queries: int = 0
    batches: int = 0
    snapshots_built: int = 0
    #: Of the ``snapshots_built``, how many were derived incrementally
    #: from the previous version's snapshot instead of rebuilt.
    snapshots_derived: int = 0
    #: Cumulative wall-clock seconds spent interning ids and building
    #: (or incrementally patching) CSR snapshot columns.
    snapshot_build_s: float = 0.0
    #: Cumulative CSR adjacency rows patched copy-on-write by
    #: incremental snapshot derivations.
    csr_rows_patched: int = 0
    #: Aggregate engine work counters across every evaluation (merged
    #: per-call from the ambient EvalCounters; see repro.obs.counters).
    engine: EvalCounters = field(default_factory=EvalCounters)
    #: The service's fingerprint-aggregated workload registry
    #: (:class:`repro.obs.insights.InsightsRegistry`), set by
    #: ``GraphService``; ``None`` for stats objects built standalone.
    insights: object | None = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def count(self, **deltas: float) -> None:
        """Atomically bump the named numeric counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def as_dict(self) -> dict[str, object]:
        """A JSON-serialisable flattening of every metric."""
        result = {
            "queries": self.queries,
            "batches": self.batches,
            "snapshots_built": self.snapshots_built,
            "snapshots_derived": self.snapshots_derived,
            "snapshot_build_s": self.snapshot_build_s,
            "csr_rows_patched": self.csr_rows_patched,
            "plan_cache": self.plan_cache.as_dict(),
            "result_cache": self.result_cache.as_dict(),
            "latency": self.latency.summary(),
            "engine": self.engine.as_dict(),
        }
        if self.insights is not None:
            result["insights"] = self.insights.counters()
        return result
