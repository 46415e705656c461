"""The metrics model: every counter is a field of a :class:`Counters`
record, declared once.

A record is a dataclass. ``add`` / ``merge`` / ``as_dict`` are derived
from its fields, so a counter added to a record reaches ``GET /stats``,
``GET /metrics`` and ``GET /insights`` with no further edit; values
computed from the counts (``hit_rate``, ``answers_mean``, …) are
properties the record names in ``derived``. Records nest — a service's
stats hold two :class:`CacheStats`, a :class:`LatencyRecorder` and an
:class:`EvalCounters` — and carry **no lock**: whoever owns a tree of
records holds one around every update and read (:class:`SharedCounters`
is that root).

:class:`EvalCounters` says *what* the evaluator did, not just how long:
the engine fills one instance in-line per evaluation through the
``active_counters()`` ambient accessor (a
:class:`~contextvars.ContextVar`, so concurrent evaluations never share
a struct). Those increments are local-int adds on an instance the
evaluating thread owns exclusively; the serving layer merges it into
its aggregate once, when the evaluation is observed.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import ClassVar, Mapping, Optional, Union

__all__ = [
    "CACHE_OUTCOMES",
    "CacheOutcomes",
    "CacheStats",
    "Counters",
    "EvalCounters",
    "Keyed",
    "LATENCY_BUCKETS_S",
    "LatencyRecorder",
    "SharedCounters",
    "active_counters",
    "use_counters",
]


def _field_names(cls: type) -> tuple[str, ...]:
    """The dataclass field names of ``cls``, computed once per class."""
    names = cls.__dict__.get("_field_names")
    if names is None:
        names = cls._field_names = tuple(f.name for f in fields(cls))
    return names


def rendered(value):
    """The JSON form of one field value: records by their own
    rendering, keyed records per key, the rest as it is."""
    if isinstance(value, Counters):
        return value.as_dict()
    if isinstance(value, LatencyRecorder):
        return value.summary()
    if isinstance(value, Mapping):
        return {key: rendered(value[key]) for key in sorted(value)}
    if isinstance(value, deque):
        return list(value)
    return value


@dataclass
class Counters:
    """Base of every stats record: fields declared once, the rest
    derived from them.

    A field whose name starts with ``_`` is an input to a derived value
    and is not rendered. Not thread-safe — see the module docstring.
    """

    #: Properties :meth:`as_dict` renders beside the fields.
    derived: ClassVar[tuple[str, ...]] = ()

    def add(self, **deltas: float) -> None:
        """Bump the named numeric fields."""
        for name, delta in deltas.items():
            setattr(self, name, getattr(self, name) + delta)

    def merge(self, other: "Union[Counters, Mapping, None]") -> None:
        """Add the counts of ``other`` — a record of this type or its
        ``as_dict()`` — into this one, number field by number field."""
        if other is None:
            return
        get = other.get if isinstance(other, Mapping) else vars(other).get
        for name in _field_names(type(self)):
            value = get(name)
            if value and type(value) in (int, float):
                setattr(self, name, getattr(self, name) + value)

    def items(self):
        """``(name, value)`` of every rendered field and derived
        value, values as they are held (records unrendered)."""
        for name in _field_names(type(self)):
            if not name.startswith("_"):
                yield name, getattr(self, name)
        for name in self.derived:
            yield name, getattr(self, name)

    def as_dict(self) -> dict[str, object]:
        """A JSON-serialisable rendering of every field and derived
        value, nested records included."""
        return {name: rendered(value) for name, value in self.items()}


@dataclass
class SharedCounters(Counters):
    """The root of a tree of records that several threads update.

    ``lock`` guards the root *and every record nested in it*: hold it
    around each update (one acquisition may cover many) and each read
    of more than one value; :meth:`as_dict` takes it itself.
    """

    def __post_init__(self) -> None:
        self.lock = threading.Lock()

    def as_dict(self) -> dict[str, object]:
        with self.lock:
            return super().as_dict()


class Keyed(dict):
    """Records keyed by a label value — per worker, per fingerprint:
    a plain mapping in ``as_dict()``, one labelled series per key in
    ``GET /metrics``."""

    def __init__(self, label: str, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.label = label


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------

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


class LatencyRecorder:
    """A bounded reservoir of recent latencies with percentiles.

    Keeps the most recent ``capacity`` samples (seconds). Percentiles
    use the nearest-rank method over the retained window — adequate
    for serving dashboards without unbounded memory. Like every record
    here it has no lock of its own: the owner of the tree it sits in
    serialises ``record`` against the reads.
    """

    def __init__(self, capacity: int = 4096):
        self._samples: deque[float] = deque(maxlen=capacity)
        self.count = 0
        self._total = 0.0
        #: All-time fixed-bucket counts (non-cumulative, one slot per
        #: LATENCY_BUCKETS_S bound plus a final +Inf overflow slot) —
        #: unlike the reservoir these never forget, so the /metrics
        #: histograms remain monotone counters as Prometheus expects.
        self._buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1
        self._total += seconds
        self._buckets[bisect_left(LATENCY_BUCKETS_S, seconds)] += 1

    @property
    def mean(self) -> float:
        return self._total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) of the window."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        return _nearest_rank(sorted(self._samples), p)

    def summary(self) -> dict[str, float]:
        """A one-shot summary: one sorted copy of the reservoir, every
        distribution figure derived from it.

        ``mean_s`` and the percentiles all describe the *retained
        window* — once the reservoir wraps, an all-time mean next to
        windowed percentiles would mix two populations and drift apart
        from them. The all-time figures stay available under their own
        keys: ``count`` / ``total_s`` (with ``window`` saying how many
        samples the distribution figures summarise).
        """
        window = sorted(self._samples)
        retained = len(window)
        return {
            "count": self.count,
            "total_s": self._total,
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
        return {
            "buckets": list(zip(LATENCY_BUCKETS_S, self._buckets)),
            "sum": self._total,
            "count": self.count,
        }


def _nearest_rank(window: list[float], p: float) -> float:
    """Nearest-rank percentile over an already-sorted window."""
    if not window:
        return 0.0
    rank = max(1, -(-len(window) * p // 100))  # ceil without floats
    return window[int(rank) - 1]


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------


@dataclass
class CacheOutcomes(Counters):
    """What lookups came to — the counts one request can add to, kept
    per cache and per query fingerprint.

    ``bypasses`` counts requests that deliberately skipped the cache
    (e.g. ``evaluate(use_cache=False)``). They are *not* lookups: a
    bypass never probed the cache, so counting it as a miss would
    silently drag ``hit_rate`` down. ``restamps`` — stale entries
    proven untouched by the interleaving mutations and re-stamped to
    the new version (these also count as hits); ``invalidations`` —
    stale entries dropped because their footprint intersected the
    mutations (these also count as misses); ``refilters`` — stale
    entries of path-local queries that only removals touched, served
    minus the answers whose paths contain a removed id (these also
    count as hits); ``extends`` — stale entries of path-local queries
    that additions touched, served as the refiltered answers plus an
    evaluation restricted to the starts near the added elements (these
    also count as hits: the entry was kept, not recomputed).
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    restamps: int = 0
    invalidations: int = 0
    refilters: int = 0
    extends: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


#: The outcome of one result-cache request → the fields it bumps. The
#: caches and the insights registry both count by this table.
CACHE_OUTCOMES: dict[str, dict[str, int]] = {
    "hit": {"hits": 1},
    "restamp": {"hits": 1, "restamps": 1},
    "refilter": {"hits": 1, "refilters": 1},
    "extend": {"hits": 1, "extends": 1},
    "miss": {"misses": 1},
    "invalidated": {"misses": 1, "invalidations": 1},
    "bypass": {"bypasses": 1},
}


@dataclass
class CacheStats(CacheOutcomes):
    """One cache's accounting: the outcomes plus what only the cache
    itself sees — ``evictions``, and ``dedup_waits``: ``get_or_create``
    callers that waited on another thread's in-flight factory instead
    of running it again."""

    derived = ("hit_rate",)

    evictions: int = 0
    dedup_waits: int = 0


# ---------------------------------------------------------------------------
# Engine work
# ---------------------------------------------------------------------------


@dataclass
class EvalCounters(Counters):
    """Work done by one evaluation (or aggregated over many).

    Field meanings:

    - ``nfa_states_expanded`` — product states popped from the 0-1 BFS
      queue in ``register_nfa.shortest_pair_lengths`` (the register-NFA
      length search);
    - ``nfa_transitions`` — relaxations pushed onto that queue (zero-
      cost register/check ops and cost-1 edge steps);
    - ``search_states_pruned`` — product states that search found and
      never queued, as no end candidate is reachable from them;
    - ``deepening_rounds`` — bound-doubling rounds of the deepening
      route (an unbounded ``shortest`` whose register NFA
      over-approximates the pattern, a Section 7 wrapper); 0 on the
      register route;
    - ``witness_steps`` — edge expansions tried by the per-seed witness
      enumeration, which serves ``shortest`` and walks every ``trail`` /
      ``simple`` (distinct ``(edge, successor)`` moves some run can take
      out of a walk prefix, before the closure at the successor prunes);
    - ``witnesses`` — walks that enumeration accepted (some run of the
      register NFA over the walk ends in the final state): under
      ``trail`` / ``simple`` one per answer path;
    - ``join_build_rows`` / ``join_probe_rows`` — rows hashed into /
      probed against join tables (nested-loop joins count both sides);
    - ``seeds_pruned`` — start nodes the planner's candidate analysis
      removed before the per-seed register search or walk;
    - ``condition_evals`` — top-level ``WHERE`` condition evaluations;
    - ``conditions_pushed`` — condition atoms the compiler pushed out
      of final CHECK ops into bind/step sites of the register program;
    - ``masks_built`` — per-(key, const) / per-label dense bitmask
      indexes materialised (core builds plus per-snapshot overlay
      patches; cache hits do not count);
    - ``mask_probes`` — single-bit bitmask tests performed by the
      length search in place of full condition/label evaluations;
    - ``dense_fast_lane`` — per-seed length searches whose program
      tracked no register (product states are ``(node, state)``);
    - ``register_files`` — distinct non-empty register files the
      length searches interned, summed over seeds (0 for a
      register-free program);
    - ``queries_proven_empty`` — evaluations the static analyzer
      short-circuited to the empty answer set without touching the
      snapshot (the query is provably empty on every graph);
    - ``conditions_simplified`` — conditions the analyzer rewrote
      before evaluation (constant-folded, deduplicated, or dropped as
      tautological), counted per evaluation;
    - ``dead_branches_pruned`` — provably-empty union branches the
      analyzer removed before evaluation, counted per evaluation.
    """

    nfa_states_expanded: int = 0
    nfa_transitions: int = 0
    search_states_pruned: int = 0
    deepening_rounds: int = 0
    witness_steps: int = 0
    witnesses: int = 0
    join_build_rows: int = 0
    join_probe_rows: int = 0
    seeds_pruned: int = 0
    condition_evals: int = 0
    conditions_pushed: int = 0
    masks_built: int = 0
    mask_probes: int = 0
    dense_fast_lane: int = 0
    register_files: int = 0
    queries_proven_empty: int = 0
    conditions_simplified: int = 0
    dead_branches_pruned: int = 0

    def total(self) -> int:
        return sum(self.as_dict().values())

    def render(self) -> str:
        """One human-readable line, zero fields elided (for explain)."""
        parts = [
            f"{name}={value}"
            for name, value in self.as_dict().items()
            if value
        ]
        return ", ".join(parts) if parts else "no work recorded"


#: The counters struct the current evaluation writes into (``None``
#: outside an evaluation — increments are skipped).
_ACTIVE: "ContextVar[Optional[EvalCounters]]" = ContextVar(
    "repro_obs_counters", default=None
)


def active_counters() -> Optional[EvalCounters]:
    """The current evaluation's counters, or ``None``."""
    return _ACTIVE.get()


class use_counters:
    """``with use_counters(c):`` — make ``c`` the ambient counters
    struct for the scope (one per evaluate call)."""

    __slots__ = ("_counters", "_token")

    def __init__(self, counters: EvalCounters):
        self._counters = counters
        self._token = None

    def __enter__(self) -> EvalCounters:
        self._token = _ACTIVE.set(self._counters)
        return self._counters

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False
