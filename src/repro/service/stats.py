"""Serving metrics for the query-service runtime.

:class:`ServiceStats` is the root of a service's tree of stats records
(:mod:`repro.obs.counters`): two cache records, a latency reservoir,
the engine-work aggregate and the throughput counters. Its ``lock``
covers the whole tree except the cache records, which their caches
update under the lock that guards the entries;
:class:`~repro.cluster.stats.ClusterStats` extends the same record
with its per-shard section.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.counters import (
    LATENCY_BUCKETS_S,
    CacheStats,
    Counters,
    EvalCounters,
    LatencyRecorder,
    SharedCounters,
)

__all__ = ["CacheStats", "LATENCY_BUCKETS_S", "LatencyRecorder", "ServiceStats"]


@dataclass
class ServiceStats(SharedCounters):
    """Aggregate metrics exposed by :class:`GraphService.stats`."""

    #: ``GET /metrics`` series of this record start with it.
    metrics_prefix = "repro_service"

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
    #: per observed evaluation; see repro.obs.counters).
    engine: EvalCounters = field(default_factory=EvalCounters)
    #: The accounting of the service's fingerprint-aggregated workload
    #: registry (:attr:`repro.obs.insights.InsightsRegistry.stats`),
    #: set by ``GraphService``; ``None`` for stats built standalone.
    insights: Counters | None = None
