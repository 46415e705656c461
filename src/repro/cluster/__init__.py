"""Sharded cluster serving: partitioned scatter/gather evaluation.

This package scales the single-process query service
(:mod:`repro.service`) across workers. The key observation is that
GPC's set semantics makes sharding *by answer start node* sound: the
engine's ``start_restriction`` seam is an exact filter on the first
path's source, so evaluating a query once per cell of a partition of
the node set yields disjoint answer sets whose union is exactly the
unsharded answer set. No dedup, no post-filtering, no coordination
between workers — snapshots are immutable and each worker sees the
same graph version.

- :mod:`repro.cluster.service` — the :class:`ClusterService` façade
  (a :class:`~repro.service.GraphService` whose execute step is
  scatter/gather);
- :mod:`repro.cluster.partitioner` — :class:`SeedPartitioner`
  (planner-pruned seed universe, degree-balanced LPT cells);
- :mod:`repro.cluster.backends` — :class:`SerialBackend`,
  :class:`ThreadBackend`, :class:`ProcessBackend` (version-keyed
  warm-worker snapshot shipping);
- :mod:`repro.cluster.router` — :class:`ScatterGatherRouter`
  (deterministic merge, per-shard failure surfacing);
- :mod:`repro.cluster.stats` — :class:`ClusterStats`
  (:class:`~repro.service.ServiceStats` plus per-worker latency
  percentiles and shard counters).
"""

from repro.cluster.backends import (
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    ShardCall,
    ShardOutcome,
    ThreadBackend,
    make_backend,
)
from repro.cluster.partitioner import SeedPartitioner
from repro.cluster.router import ScatterGatherRouter, ShardFailure
from repro.cluster.service import ClusterService
from repro.cluster.stats import ClusterStats

__all__ = [
    "ClusterService",
    "ClusterStats",
    "SeedPartitioner",
    "ScatterGatherRouter",
    "ShardFailure",
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ShardCall",
    "ShardOutcome",
    "make_backend",
]
