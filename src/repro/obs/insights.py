"""Fingerprint-aggregated workload insights.

Per-request observability (spans, counters) answers "where did *this*
request's time go"; at serving scale the operational unit is the
*query shape*. This module aggregates every evaluation under its
**query fingerprint** — the canonical rendering of the query
(:func:`repro.gpc.pretty.pretty`) with constants bucketed, hashed —
so forty query shapes stay forty registry entries however many
millions of calls and distinct constant bindings arrive.

Each :class:`QueryInsight` keeps rolling aggregates (calls, errors,
timeouts, cache outcomes, answer rows, a latency reservoir plus
fixed-bucket histogram, merged engine counters) and a
:class:`PlanQuality` record comparing the planner's pre-execution
cardinality estimates (:func:`repro.gpc.planner.estimate_plan`)
against the observed actuals — answer counts, hash-join build/probe
rows, NFA expansions — surfacing a per-fingerprint *misestimate
factor*: the planner's validation loop, closed per workload shape.

:class:`InsightsRegistry` is thread-safe and bounded (LRU eviction
past ``capacity`` fingerprints, an LRU memo for the query →
fingerprint mapping) and serves top-K views by total time, calls or
misestimation for ``GET /insights`` and the ``/metrics`` labeled
series.

The heavyweight imports (parser/pretty, the latency recorder) are
deferred to first use so importing :mod:`repro.obs` stays cheap and
cycle-free.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict, deque
from typing import Optional

from repro.obs.counters import EvalCounters

__all__ = [
    "InsightsRegistry",
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
    together. Unrenderable inputs (extension constructs the printer
    rejects) fall back to ``repr`` of the bucketed AST, keeping
    fingerprinting total.
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
    try:
        return ast.fold(query, render_bucketed)[0]
    except TypeError:
        return repr(ast.fold(query, bucket))


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


class PlanQuality:
    """Planner estimates vs observed actuals for one fingerprint.

    ``samples`` counts the evaluations that carried a
    :class:`~repro.gpc.planner.PlanEstimates` (cache hits and errors
    do not — no execution happened to compare against).
    """

    __slots__ = (
        "samples",
        "estimated_answers",
        "observed_answers",
        "estimated_join_build_rows",
        "observed_join_build_rows",
        "estimated_join_probe_rows",
        "observed_join_probe_rows",
        "observed_nfa_states_expanded",
        "worst_factor",
    )

    def __init__(self):
        self.samples = 0
        self.estimated_answers = 0.0
        self.observed_answers = 0
        self.estimated_join_build_rows = 0.0
        self.observed_join_build_rows = 0
        self.estimated_join_probe_rows = 0.0
        self.observed_join_probe_rows = 0
        self.observed_nfa_states_expanded = 0
        self.worst_factor = 1.0

    def observe(self, estimates, answers: int, counters) -> None:
        self.samples += 1
        self.estimated_answers += estimates.cardinality
        self.observed_answers += answers
        self.estimated_join_build_rows += estimates.join_build_rows
        self.estimated_join_probe_rows += estimates.join_probe_rows
        if counters is not None:
            self.observed_join_build_rows += counters.join_build_rows
            self.observed_join_probe_rows += counters.join_probe_rows
            self.observed_nfa_states_expanded += counters.nfa_states_expanded
        self.worst_factor = max(
            self.worst_factor,
            _symmetric_ratio(estimates.cardinality, answers),
        )

    @property
    def misestimate_factor(self) -> float:
        """How far the planner's mean answer estimate is from the mean
        observed answer count, as a factor >= 1 (1.0 = spot on)."""
        if not self.samples:
            return 1.0
        return _symmetric_ratio(
            self.estimated_answers / self.samples,
            self.observed_answers / self.samples,
        )

    def as_dict(self) -> dict[str, object]:
        samples = self.samples
        return {
            "samples": samples,
            "estimated_answers_mean": (
                self.estimated_answers / samples if samples else 0.0
            ),
            "observed_answers_mean": (
                self.observed_answers / samples if samples else 0.0
            ),
            "misestimate_factor": self.misestimate_factor,
            "worst_factor": self.worst_factor,
            "estimated_join_build_rows": self.estimated_join_build_rows,
            "observed_join_build_rows": self.observed_join_build_rows,
            "estimated_join_probe_rows": self.estimated_join_probe_rows,
            "observed_join_probe_rows": self.observed_join_probe_rows,
            "observed_nfa_states_expanded": self.observed_nfa_states_expanded,
        }


class QueryInsight:
    """Rolling aggregates for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "query",
        "calls",
        "errors",
        "timeouts",
        "answers_total",
        "total_time_s",
        "cache_hits",
        "cache_restamps",
        "cache_misses",
        "cache_invalidations",
        "cache_bypasses",
        "latency",
        "counters",
        "plan",
        "trace_ids",
    )

    def __init__(
        self,
        fingerprint: str,
        query: str,
        *,
        latency_capacity: int = 256,
        trace_id_capacity: int = 4,
    ):
        # The only place the canonical text is stored: entries key the
        # registry by fingerprint, so raw text is never stored twice.
        from repro.service.stats import LatencyRecorder

        self.fingerprint = fingerprint
        self.query = query
        self.calls = 0
        self.errors = 0
        self.timeouts = 0
        self.answers_total = 0
        self.total_time_s = 0.0
        self.cache_hits = 0
        self.cache_restamps = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        self.cache_bypasses = 0
        self.latency = LatencyRecorder(capacity=latency_capacity)
        self.counters = EvalCounters()
        self.plan = PlanQuality()
        #: The most recent recorded trace ids, for /trace cross-links.
        self.trace_ids: deque[str] = deque(maxlen=trace_id_capacity)

    def as_dict(self) -> dict[str, object]:
        calls = self.calls
        return {
            "fingerprint": self.fingerprint,
            "query": self.query,
            "calls": calls,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "answers_total": self.answers_total,
            "answers_mean": self.answers_total / calls if calls else 0.0,
            "total_time_s": self.total_time_s,
            "cache": {
                "hits": self.cache_hits,
                "restamps": self.cache_restamps,
                "misses": self.cache_misses,
                "invalidations": self.cache_invalidations,
                "bypasses": self.cache_bypasses,
            },
            "latency": self.latency.summary(),
            "latency_histogram": self.latency.histogram(),
            "engine": self.counters.as_dict(),
            "plan": self.plan.as_dict(),
            "recent_trace_ids": list(self.trace_ids),
        }

    def metrics_summary(self) -> dict[str, object]:
        """The flat numeric slice rendered as ``/metrics`` labeled
        series (one bounded line set per top-K fingerprint)."""
        return {
            "calls": self.calls,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "answers_total": self.answers_total,
            "total_time_s": self.total_time_s,
            "cache_hits": self.cache_hits,
            "misestimate_factor": self.plan.misestimate_factor,
        }

    def __repr__(self) -> str:
        return (
            f"QueryInsight({self.fingerprint}, calls={self.calls}, "
            f"total_time_s={self.total_time_s:.4f})"
        )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_SORT_KEYS = {
    "total_time": lambda e: (e.total_time_s, e.calls),
    "calls": lambda e: (e.calls, e.total_time_s),
    "misestimate": lambda e: (e.plan.misestimate_factor, e.total_time_s),
    "errors": lambda e: (e.errors + e.timeouts, e.total_time_s),
}


class InsightsRegistry:
    """Thread-safe, bounded per-fingerprint workload aggregates.

    ``capacity`` bounds the fingerprint set (least-recently-*updated*
    entries evict first); ``fingerprint_cache_size`` bounds the memo
    from query object to ``(fingerprint, canonical)`` so the hot path
    never re-parses a repeated query. ``enabled=False`` turns
    :meth:`record` into an early-returning no-op, which is what the
    overhead benchmark compares against.
    """

    def __init__(
        self,
        capacity: int = 512,
        *,
        enabled: bool = True,
        fingerprint_cache_size: int = 1024,
        latency_capacity: int = 256,
        trace_id_capacity: int = 4,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self.fingerprint_cache_size = fingerprint_cache_size
        self._latency_capacity = latency_capacity
        self._trace_id_capacity = trace_id_capacity
        self._entries: OrderedDict[str, QueryInsight] = OrderedDict()
        self._fingerprints: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._records = 0
        self._evictions = 0

    # -- fingerprinting -------------------------------------------------

    def fingerprint(self, query, parsed=None) -> tuple[str, str]:
        """Memoised ``(fingerprint, canonical_text)`` for ``query``;
        ``parsed`` is its AST when the caller already holds one, so a
        memo miss on query text does not parse it a second time."""
        with self._lock:
            found = self._fingerprints.get(query)
            if found is not None:
                self._fingerprints.move_to_end(query)
                return found
        computed = query_fingerprint(query if parsed is None else parsed)
        with self._lock:
            self._fingerprints[query] = computed
            while len(self._fingerprints) > self.fingerprint_cache_size:
                self._fingerprints.popitem(last=False)
        return computed

    # -- recording ------------------------------------------------------

    def record(
        self,
        query,
        *,
        parsed=None,
        latency_s: float,
        answers: Optional[int] = None,
        cache: Optional[str] = None,
        counters: Optional[EvalCounters] = None,
        estimates=None,
        error: bool = False,
        timeout: bool = False,
        trace_id: Optional[str] = None,
    ) -> Optional[str]:
        """Fold one evaluation into its fingerprint's aggregates.

        ``cache`` is one of ``hit``/``restamp``/``miss``/
        ``invalidated``/``bypass`` (or ``None`` to skip cache
        accounting); ``estimates`` is the
        :class:`~repro.gpc.planner.PlanEstimates` stamped at plan time,
        compared against ``answers`` and ``counters``; ``parsed`` as
        for :meth:`fingerprint`. Returns the fingerprint (for span
        stamping), or ``None`` when disabled.
        """
        if not self.enabled:
            return None
        fingerprint, canonical = self.fingerprint(query, parsed)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = QueryInsight(
                    fingerprint,
                    canonical,
                    latency_capacity=self._latency_capacity,
                    trace_id_capacity=self._trace_id_capacity,
                )
                self._entries[fingerprint] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            else:
                self._entries.move_to_end(fingerprint)
            self._records += 1
            entry.calls += 1
            entry.total_time_s += latency_s
            if error:
                entry.errors += 1
            if timeout:
                entry.timeouts += 1
            if answers is not None:
                entry.answers_total += answers
            if cache == "hit":
                entry.cache_hits += 1
            elif cache == "restamp":
                # A restamp is a hit that survived interleaving
                # mutations; count it in both, like CacheStats does.
                entry.cache_hits += 1
                entry.cache_restamps += 1
            elif cache == "miss":
                entry.cache_misses += 1
            elif cache == "invalidated":
                entry.cache_misses += 1
                entry.cache_invalidations += 1
            elif cache == "bypass":
                entry.cache_bypasses += 1
            if trace_id is not None and (
                not entry.trace_ids or entry.trace_ids[-1] != trace_id
            ):
                entry.trace_ids.append(trace_id)
            if estimates is not None and answers is not None and not error:
                entry.plan.observe(estimates, answers, counters)
        # Outside the registry lock: both have their own locking.
        entry.latency.record(latency_s)
        if counters is not None:
            entry.counters.merge(counters)
        return fingerprint

    # -- views ----------------------------------------------------------

    def top(self, sort: str = "total_time", limit: int = 10) -> list[dict]:
        """The top-``limit`` fingerprints by ``sort``, as dicts."""
        key = _SORT_KEYS.get(sort)
        if key is None:
            raise ValueError(
                f"unknown sort {sort!r}; expected one of {TOP_SORTS}"
            )
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._lock:
            entries = list(self._entries.values())
        entries.sort(key=key, reverse=True)
        return [entry.as_dict() for entry in entries[:limit]]

    def labeled_series(self, limit: int = 10) -> dict[str, dict]:
        """Per-fingerprint flat numeric summaries for the ``/metrics``
        labeled series, top-``limit`` by total time (bounded so the
        exposition never grows with the fingerprint population)."""
        with self._lock:
            entries = list(self._entries.values())
        entries.sort(key=_SORT_KEYS["total_time"], reverse=True)
        return {
            entry.fingerprint: entry.metrics_summary()
            for entry in entries[:limit]
        }

    def get(self, fingerprint: str) -> Optional[QueryInsight]:
        """The live entry for ``fingerprint`` (no LRU touch), if any."""
        with self._lock:
            return self._entries.get(fingerprint)

    def counters(self) -> dict[str, object]:
        """Registry-level accounting for the stats/metrics surfaces."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "fingerprints": len(self._entries),
                "records": self._records,
                "evictions": self._evictions,
            }

    def clear(self) -> None:
        """Drop every entry and memo (capacity and flags are kept)."""
        with self._lock:
            self._entries.clear()
            self._fingerprints.clear()
            self._records = 0
            self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"InsightsRegistry(enabled={self.enabled}, "
            f"fingerprints={len(self)}, records={self._records})"
        )
