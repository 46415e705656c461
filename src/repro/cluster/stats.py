"""Serving metrics for the sharded cluster runtime.

:class:`ClusterStats` is :class:`~repro.service.stats.ServiceStats`
plus the quantities that only exist for scatter/gather serving: how
many shard tasks were scattered, how often snapshots were shipped to
process workers, per-worker latency reservoirs (one
:class:`~repro.service.stats.LatencyRecorder` per worker tag) next to
the aggregate, and shard failure counts. ``as_dict()`` is the metrics
payload, exactly like the single-service stats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.stats import LatencyRecorder, ServiceStats

__all__ = ["ClusterStats"]


@dataclass
class ClusterStats(ServiceStats):
    """Aggregate metrics exposed by :class:`ClusterService.stats`.

    The inherited ``latency`` records router-level wall clock per query
    (scatter + evaluate + gather) and the inherited ``engine`` the work
    of every shard task (merged from each outcome's per-shard counters
    at gather time); ``shard_latency`` records in-worker evaluation
    time per shard task, with :attr:`per_worker` breaking the same
    samples down by worker tag (thread name or worker pid).
    """

    shard_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    per_worker: dict[str, LatencyRecorder] = field(default_factory=dict)
    scatters: int = 0
    shard_failures: int = 0
    snapshots_shipped: int = 0
    #: Version advances served by shipping a pickled delta chain to the
    #: warm workers instead of rebuilding the pool with a new snapshot.
    deltas_shipped: int = 0

    def record_shard(self, worker: str, seconds: float) -> None:
        """Record one completed shard task attributed to ``worker``."""
        self.shard_latency.record(seconds)
        with self._lock:
            recorder = self.per_worker.get(worker)
            if recorder is None:
                recorder = self.per_worker[worker] = LatencyRecorder()
        recorder.record(seconds)

    def as_dict(self) -> dict[str, object]:
        """:meth:`ServiceStats.as_dict` with the per-shard entries
        spliced in after the shared key each has always followed, so
        the payload's key order stays what dashboards were built on."""
        with self._lock:
            workers = dict(self.per_worker)
        shard_section = {
            "batches": {
                "scatters": self.scatters,
                "shard_failures": self.shard_failures,
                "snapshots_shipped": self.snapshots_shipped,
                "deltas_shipped": self.deltas_shipped,
            },
            "latency": {"shard_latency": self.shard_latency.summary()},
            "engine": {
                "per_worker": {
                    tag: recorder.summary()
                    for tag, recorder in sorted(workers.items())
                }
            },
        }
        result: dict[str, object] = {}
        for key, value in super().as_dict().items():
            result[key] = value
            result.update(shard_section.get(key, ()))
        return result
