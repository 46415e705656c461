"""Observability: request tracing, engine work counters, deadlines.

The serving stack (HTTP front end → slot → worker-thread hop →
service/cluster → planner → engine) reports *where a request's time went* through this
package:

- :mod:`repro.obs.trace` — ``Tracer``/``Span`` with contextvars
  propagation across asyncio, thread pools, and (via explicit
  carriers) process pools;
- :mod:`repro.obs.counters` — the metrics model: the ``Counters``
  base every stats record is declared on, ``LatencyRecorder``,
  ``CacheStats`` and ``EvalCounters``, the engine's in-line work
  accounting (NFA states, join rows, deepening rounds, …);
- :mod:`repro.obs.deadline` — per-request deadline propagation into
  the engine's long-running loops;
- :mod:`repro.obs.store` — the bounded ``TraceStore`` ring buffer
  behind ``GET /trace``;
- :mod:`repro.obs.metrics` — Prometheus text exposition behind
  ``GET /metrics``;
- :mod:`repro.obs.insights` — fingerprint-aggregated workload
  profiles with planner estimate-vs-actual accounting behind
  ``GET /insights``.

Stdlib-only, and importable without the serving stack (its only
intra-repo dependency is :mod:`repro.errors`).
"""

from repro.obs.counters import (
    CacheStats,
    Counters,
    EvalCounters,
    LatencyRecorder,
    active_counters,
    use_counters,
)
from repro.obs.deadline import check_deadline, deadline_scope, remaining
from repro.obs.store import TraceStore
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_carrier,
    current_span,
    remote_span,
    span,
)

# Imported last: insights lazy-imports gpc modules that themselves
# import repro.obs, so it must not run during the eager imports above.
from repro.obs.insights import (
    InsightsRegistry,
    Observation,
    PlanQuality,
    QueryInsight,
    canonical_query,
    query_fingerprint,
)

__all__ = [
    "InsightsRegistry",
    "Observation",
    "PlanQuality",
    "QueryInsight",
    "canonical_query",
    "query_fingerprint",
    "CacheStats",
    "Counters",
    "EvalCounters",
    "LatencyRecorder",
    "active_counters",
    "use_counters",
    "check_deadline",
    "deadline_scope",
    "remaining",
    "TraceStore",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current_carrier",
    "current_span",
    "remote_span",
    "span",
]
