"""Serving metrics for the sharded cluster runtime.

:class:`ClusterStats` is :class:`~repro.service.stats.ServiceStats`
plus the quantities that only exist for scatter/gather serving: how
many shard tasks were scattered, how often snapshots were shipped to
process workers, per-worker latency reservoirs (one
:class:`~repro.obs.counters.LatencyRecorder` per worker tag) next to
the aggregate, and shard failure counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.counters import Keyed, LatencyRecorder
from repro.service.stats import ServiceStats

__all__ = ["ClusterStats"]


@dataclass
class ClusterStats(ServiceStats):
    """Aggregate metrics exposed by :class:`ClusterService.stats`.

    The inherited ``latency`` records, as on ``GraphService``, one
    sample per observed query, timed from its batch's start to its
    answer (scatter + evaluate + gather; a lone ``evaluate`` is a batch
    of one), and the inherited ``engine`` the work of every shard task
    (each evaluation's counters are the sum of its shards');
    ``shard_latency`` records in-worker evaluation time per shard task,
    with :attr:`per_worker` breaking the same samples down by worker
    tag (thread name or worker pid).
    """

    metrics_prefix = "repro_cluster"

    shard_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    per_worker: Keyed = field(default_factory=lambda: Keyed("worker"))
    scatters: int = 0
    shard_failures: int = 0
    snapshots_shipped: int = 0
    #: Version advances served by shipping a pickled delta chain to the
    #: warm workers instead of rebuilding the pool with a new snapshot.
    deltas_shipped: int = 0

    def record_shards(self, outcomes) -> None:
        """Account the shard tasks of one gather (``lock`` held)."""
        for outcome in outcomes:
            self.scatters += 1
            self.shard_failures += not outcome.ok
            self.shard_latency.record(outcome.elapsed_s)
            recorder = self.per_worker.get(outcome.worker)
            if recorder is None:
                recorder = self.per_worker[outcome.worker] = LatencyRecorder()
            recorder.record(outcome.elapsed_s)
