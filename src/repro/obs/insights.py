"""Fingerprint-aggregated workload insights.

Per-request observability (spans, counters) answers "where did *this*
request's time go"; at serving scale the operational unit is the
*query shape*. This module aggregates every evaluation under its
**query fingerprint** — the canonical rendering of the query
(:func:`repro.gpc.pretty.pretty`) with constants bucketed, hashed —
so forty query shapes stay forty registry entries however many
millions of calls and distinct constant bindings arrive.

Each :class:`QueryInsight` — a :class:`~repro.obs.counters.Counters`
record like every other stats structure — keeps rolling aggregates
(calls, errors, timeouts, cache outcomes, answer rows, a latency
reservoir plus fixed-bucket histogram, merged engine counters) and a
:class:`PlanQuality` record comparing the planner's pre-execution
cardinality estimates (:func:`repro.gpc.planner.estimate_plan`)
against the observed actuals — answer counts, hash-join build/probe
rows, NFA expansions — surfacing a per-fingerprint *misestimate
factor*: the planner's validation loop, closed per workload shape.

:class:`InsightsRegistry` is thread-safe and bounded (LRU eviction
past ``capacity`` fingerprints) and serves top-K views by total time,
calls or misestimation for ``GET /insights`` and the ``/metrics``
labeled series.

The serving pipeline describes each evaluation with one
:class:`Observation` and hands it to :meth:`InsightsRegistry.record`.
The parser/pretty imports are deferred to first use so importing
:mod:`repro.obs` stays cheap and cycle-free.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import DeadlineExceededError
from repro.obs.counters import (
    CACHE_OUTCOMES,
    CacheOutcomes,
    Counters,
    EvalCounters,
    Keyed,
    LatencyRecorder,
)

__all__ = [
    "InsightsRegistry",
    "Observation",
    "QueryInsight",
    "PlanQuality",
    "query_fingerprint",
    "canonical_query",
]

#: The sentinel every condition constant is replaced with before
#: rendering, so ``x.k = 1`` and ``x.k = 'foo'`` share a fingerprint.
CONSTANT_BUCKET = "?"

#: The sort keys :meth:`InsightsRegistry.top` accepts.
TOP_SORTS = ("total_time", "calls", "misestimate", "errors")

#: Latency samples each fingerprint's reservoir retains.
LATENCY_CAPACITY = 256

#: Recent trace ids each fingerprint keeps for ``/trace`` cross-links.
TRACE_ID_CAPACITY = 4


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------


def _canonical_condition(condition):
    from repro.gpc.conditions_ast import And, Not, Or, PropertyEqualsConst

    if isinstance(condition, PropertyEqualsConst):
        return PropertyEqualsConst(
            condition.variable, condition.key, CONSTANT_BUCKET
        )
    if isinstance(condition, And):
        return And(
            _canonical_condition(condition.left),
            _canonical_condition(condition.right),
        )
    if isinstance(condition, Or):
        return Or(
            _canonical_condition(condition.left),
            _canonical_condition(condition.right),
        )
    if isinstance(condition, Not):
        return Not(_canonical_condition(condition.inner))
    # PropertyEqualsProperty and extension conditions carry no
    # bucketable constants in the core grammar.
    return condition


def canonical_query(query) -> str:
    """The canonical text of ``query`` (str or AST): parsed, constants
    bucketed to ``'?'``, re-rendered via :func:`repro.gpc.pretty.pretty`.

    Whitespace and formatting variants of the same query normalise to
    one string; queries differing only in condition constants collapse
    together. Extension constructs render as their ``repr``, so
    fingerprinting is total.
    """
    from repro.gpc import ast
    from repro.gpc.parser import parse_query
    from repro.gpc.pretty import render_step

    def bucket(expression, parts):
        if isinstance(expression, ast.Conditioned):
            return ast.Conditioned(
                parts[0], _canonical_condition(expression.condition)
            )
        return ast.with_children(expression, parts) if parts else expression

    def render_bucketed(expression, parts):
        if isinstance(expression, ast.Conditioned):
            expression = bucket(expression, (expression.pattern,))
        return render_step(expression, parts)

    if isinstance(query, str):
        query = parse_query(query)
    return ast.fold(query, render_bucketed)[0]


def query_fingerprint(query) -> tuple[str, str]:
    """``(fingerprint, canonical_text)`` for a query (str or AST).

    The fingerprint is a short stable hash of the canonical text; two
    queries share it iff they share the canonical form.
    """
    canonical = canonical_query(query)
    fingerprint = hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=8
    ).hexdigest()
    return fingerprint, canonical


def _symmetric_ratio(estimated: float, observed: float) -> float:
    """How far apart two counts are, as a factor >= 1 (1.0 = exact).

    Both sides are floored at 1 so zero-answer queries do not divide
    by zero and small absolute errors near zero stay small factors.
    """
    a = max(float(estimated), 1.0)
    b = max(float(observed), 1.0)
    return a / b if a >= b else b / a


# ---------------------------------------------------------------------------
# Per-fingerprint aggregates
# ---------------------------------------------------------------------------


@dataclass
class PlanQuality(Counters):
    """Planner estimates vs observed actuals for one fingerprint.

    ``samples`` counts the evaluations that carried a
    :class:`~repro.gpc.planner.PlanEstimates` (cache hits and errors
    do not — no execution happened to compare against).
    """

    derived = (
        "estimated_answers_mean",
        "observed_answers_mean",
        "misestimate_factor",
    )

    samples: int = 0
    _estimated_answers: float = 0.0
    _observed_answers: int = 0
    estimated_join_build_rows: float = 0.0
    observed_join_build_rows: int = 0
    estimated_join_probe_rows: float = 0.0
    observed_join_probe_rows: int = 0
    observed_nfa_states_expanded: int = 0
    worst_factor: float = 1.0

    def observe(self, estimates, answers: int, counters) -> None:
        self.add(
            samples=1,
            _estimated_answers=estimates.cardinality,
            _observed_answers=answers,
            estimated_join_build_rows=estimates.join_build_rows,
            estimated_join_probe_rows=estimates.join_probe_rows,
        )
        if counters is not None:
            self.add(
                observed_join_build_rows=counters.join_build_rows,
                observed_join_probe_rows=counters.join_probe_rows,
                observed_nfa_states_expanded=counters.nfa_states_expanded,
            )
        self.worst_factor = max(
            self.worst_factor,
            _symmetric_ratio(estimates.cardinality, answers),
        )

    @property
    def estimated_answers_mean(self) -> float:
        return self._estimated_answers / self.samples if self.samples else 0.0

    @property
    def observed_answers_mean(self) -> float:
        return self._observed_answers / self.samples if self.samples else 0.0

    @property
    def misestimate_factor(self) -> float:
        """How far the planner's mean answer estimate is from the mean
        observed answer count, as a factor >= 1 (1.0 = spot on)."""
        if not self.samples:
            return 1.0
        return _symmetric_ratio(
            self.estimated_answers_mean, self.observed_answers_mean
        )


@dataclass
class Observation:
    """One evaluation as the serving pipeline saw it.

    The pipeline creates it at the door, fills it in as the stages run
    (cache probe → plan → execute) and hands it over once, at its
    single exit, to the façade's ``_observe`` — which folds it into
    the service aggregate and, through
    :meth:`InsightsRegistry.record`, into its fingerprint's entry.

    ``fingerprint`` is the ``(fingerprint, canonical)`` pair of the
    prepared query's shape — on a cache hit, the one its entry carries
    — so recording fingerprints nothing;
    ``cache`` a key of :data:`~repro.obs.counters.CACHE_OUTCOMES`;
    ``estimates`` the :class:`~repro.gpc.planner.PlanEstimates` stamped
    at plan time; ``error`` what the execute step raised; ``latency_s``
    is stamped by :meth:`finish`.
    """

    query: object
    started: float = field(default_factory=time.perf_counter)
    fingerprint: Optional[tuple[str, str]] = None
    answers: Optional[int] = None
    cache: Optional[str] = None
    counters: Optional[EvalCounters] = None
    estimates: object = None
    error: Optional[BaseException] = None
    trace_id: Optional[str] = None
    latency_s: float = 0.0

    def finish(self, result=None) -> "Observation":
        """Stamp the latency — and, given the answers, their count."""
        self.latency_s = time.perf_counter() - self.started
        if result is not None:
            self.answers = len(result)
        return self


@dataclass
class QueryInsight(Counters):
    """Rolling aggregates for one query fingerprint.

    ``query`` is the canonical text, stored here and nowhere else:
    entries key the registry by fingerprint.
    """

    derived = ("answers_mean", "latency_histogram")

    fingerprint: str = ""
    query: str = ""
    calls: int = 0
    errors: int = 0
    timeouts: int = 0
    answers_total: int = 0
    total_time_s: float = 0.0
    cache: CacheOutcomes = field(default_factory=CacheOutcomes)
    latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(LATENCY_CAPACITY)
    )
    engine: EvalCounters = field(default_factory=EvalCounters)
    plan: PlanQuality = field(default_factory=PlanQuality)
    #: The most recent recorded trace ids, for /trace cross-links.
    recent_trace_ids: deque = field(
        default_factory=lambda: deque(maxlen=TRACE_ID_CAPACITY)
    )

    def observe(self, seen: Observation) -> None:
        """Fold one evaluation in (registry lock held)."""
        failed = seen.error is not None
        self.add(
            calls=1,
            total_time_s=seen.latency_s,
            errors=failed,
            timeouts=isinstance(seen.error, DeadlineExceededError),
            answers_total=seen.answers or 0,
        )
        if seen.cache is not None:
            self.cache.add(**CACHE_OUTCOMES[seen.cache])
        self.latency.record(seen.latency_s)
        self.engine.merge(seen.counters)
        recent = self.recent_trace_ids
        if seen.trace_id is not None and (
            not recent or recent[-1] != seen.trace_id
        ):
            recent.append(seen.trace_id)
        if seen.estimates is not None and seen.answers is not None and not failed:
            self.plan.observe(seen.estimates, seen.answers, seen.counters)

    @property
    def answers_mean(self) -> float:
        return self.answers_total / self.calls if self.calls else 0.0

    @property
    def latency_histogram(self) -> dict[str, object]:
        return self.latency.histogram()

    def metrics_summary(self) -> dict[str, object]:
        """The flat numeric slice rendered as ``/metrics`` labeled
        series (one bounded line set per top-K fingerprint)."""
        summary = {name: getattr(self, name) for name in _SERIES_FIELDS}
        summary["cache_hits"] = self.cache.hits
        summary["misestimate_factor"] = self.plan.misestimate_factor
        return summary


#: The :class:`QueryInsight` fields :meth:`QueryInsight.metrics_summary`
#: carries as they are.
_SERIES_FIELDS = ("calls", "errors", "timeouts", "answers_total", "total_time_s")


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_SORT_KEYS = {
    "total_time": lambda e: (e.total_time_s, e.calls),
    "calls": lambda e: (e.calls, e.total_time_s),
    "misestimate": lambda e: (e.plan.misestimate_factor, e.total_time_s),
    "errors": lambda e: (e.errors + e.timeouts, e.total_time_s),
}


@dataclass
class RegistryStats(Counters):
    """Registry-level accounting: ``insights`` in a service's stats."""

    enabled: bool = True
    capacity: int = 512
    fingerprints: int = 0
    records: int = 0
    evictions: int = 0


class InsightsRegistry:
    """Thread-safe, bounded per-fingerprint workload aggregates.

    ``capacity`` bounds the fingerprint set (least-recently-*updated*
    entries evict first). ``enabled=False`` turns :meth:`record` into
    an early-returning no-op, which is what the overhead benchmark
    compares against. One lock guards the entries and :attr:`stats`.
    """

    def __init__(self, capacity: int = 512, *, enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        #: Holds ``enabled`` and ``capacity`` too: they are rendered.
        self.stats = RegistryStats(enabled=enabled, capacity=capacity)
        self._entries: OrderedDict[str, QueryInsight] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.stats.enabled

    @property
    def capacity(self) -> int:
        return self.stats.capacity

    # -- recording ------------------------------------------------------

    def record(self, seen: Observation) -> Optional[str]:
        """Fold one evaluation into its fingerprint's aggregates.

        Returns the fingerprint (for span stamping), or ``None`` when
        disabled. The serving pipeline stamps ``seen.fingerprint``;
        an observation without one is fingerprinted here, outside the
        lock.
        """
        if not self.enabled:
            return None
        found = seen.fingerprint or query_fingerprint(seen.query)
        with self._lock:
            self._entry(*found).observe(seen)
        return found[0]

    def _entry(self, fingerprint: str, canonical: str) -> QueryInsight:
        """The entry to fold a record into, made most recent (lock
        held); a new one may evict the least recently updated."""
        stats = self.stats
        stats.records += 1
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
            return entry
        entry = self._entries[fingerprint] = QueryInsight(fingerprint, canonical)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            stats.evictions += 1
        stats.fingerprints = len(self._entries)
        return entry

    # -- views ----------------------------------------------------------

    def _ranked(self, sort: str, limit: int) -> list[QueryInsight]:
        """The top-``limit`` live entries by ``sort`` (lock held)."""
        entries = sorted(self._entries.values(), key=_SORT_KEYS[sort], reverse=True)
        return entries[:limit]

    def top(self, sort: str = "total_time", limit: int = 10) -> list[dict]:
        """The top-``limit`` fingerprints by ``sort``, as dicts."""
        if sort not in _SORT_KEYS:
            raise ValueError(
                f"unknown sort {sort!r}; expected one of {TOP_SORTS}"
            )
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            return [entry.as_dict() for entry in self._ranked(sort, limit)]

    def labeled_series(self, limit: int = 10) -> Keyed:
        """Per-fingerprint flat numeric summaries for the ``/metrics``
        labeled series, top-``limit`` by total time (bounded so the
        exposition never grows with the fingerprint population)."""
        with self._lock:
            return Keyed(
                "fingerprint",
                {
                    entry.fingerprint: entry.metrics_summary()
                    for entry in self._ranked("total_time", limit)
                },
            )

    def get(self, fingerprint: str) -> Optional[QueryInsight]:
        """The live entry for ``fingerprint`` (no LRU touch), if any."""
        with self._lock:
            return self._entries.get(fingerprint)

    def counters(self) -> dict[str, object]:
        """Registry-level accounting for the stats/metrics surfaces."""
        with self._lock:
            return self.stats.as_dict()

    def clear(self) -> None:
        """Drop every entry (capacity and flags are kept)."""
        with self._lock:
            self._entries.clear()
            self.stats.fingerprints = self.stats.records = 0
            self.stats.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"InsightsRegistry(enabled={self.enabled}, "
            f"fingerprints={len(self)}, records={self.stats.records})"
        )
