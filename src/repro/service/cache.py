"""Caches for the serving layer: a thread-safe LRU and the
footprint-aware result cache.

:class:`LRUCache` is the generic building block (used for prepared
plans). ``get_or_create`` is *single-flight*: concurrent misses on the
same key share one factory run — the first caller compiles, the rest
wait on a per-key event and read the published value — so a thundering
herd of identical cold queries compiles the plan once, not once per
thread.

:class:`SemanticResultCache` keys entries by ``(query, config)`` and
stores the graph version, the query's read footprint
(:class:`~repro.gpc.footprint.QueryFootprint`), its insights
fingerprint and the answer set together. The footprint and the
fingerprint are the prepared shape's
(:class:`~repro.service.prepared.PreparedQuery`), carried here because
a hit skips ``prepare``. On lookup at a newer version it fetches the
delta chain the graph recorded between the entry's version and the
lookup's (:meth:`~repro.graph.property_graph.PropertyGraph.deltas_since`) and
intersects the footprint with the chain's
:class:`~repro.graph.delta.DeltaSummary`. The verdict is one of four:

- **restamp** — the footprint is disjoint from the chain: the
  mutations provably cannot change this query's answers; the entry is
  *re-stamped* to the new version and served (a hit that survives the
  mutation);
- **refilter** — the footprint is path-local (no ``shortest``, no
  extension) and only the chain's removals touch it: the answers at
  the new version are exactly the cached ones whose paths avoid every
  removed id, so those are served and replace the entry. ``shortest``
  is excluded because a removal can make a longer path shortest, and
  extensions because the footprint cannot see through them. The
  window is exact: a removal after the lookup's version must not drop
  answers that version still has;
- **extend** — the footprint is path-local and the chain's additions
  touch it too, but no property write it reads does, its leftmost
  pattern query matches paths of at most ``L`` edges, and no other
  join side can see the additions. The answers at the new version are
  the refiltered ones plus the caller's evaluation restricted to the
  seeds ``S``: every node within ``L - 1`` hops (label- and
  direction-blind) of the nodes the additions touched. Exact: adding
  elements can only add answers, and an added answer's first path
  holds an added element, so it reaches one of that element's
  endpoints — touched — within ``L - 1`` edges of its start; those
  edges are in the new snapshot, so its start is in ``S``. Answers
  whose paths hold no added element matched before and are kept by
  the refilter. ``start_restriction`` is exact by
  :meth:`~repro.gpc.engine.Evaluator.evaluate`'s contract. The cache
  never evaluates: it hands back the kept answers and the touched
  nodes, and the caller's answer set is put as a new entry;
- **invalidate** — the chain touches the footprint any other way (an
  addition another join side observes, say), is no longer available,
  or the footprint is unbounded: the entry is dropped and the caller
  recomputes.

Invalidation is lazy (checked at lookup) which is observably
equivalent to an eager walk on every version bump, but costs nothing
for entries never asked about again.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

from repro.graph.delta import summarize_deltas
from repro.obs.counters import CACHE_OUTCOMES, CacheStats
from repro.obs.trace import span

__all__ = ["LRUCache", "SemanticResultCache", "extension_seeds"]

V = TypeVar("V")

_MISSING = object()


def extension_seeds(view, touched, hops: int) -> frozenset:
    """The nodes of ``view`` within ``hops`` edges of ``touched``,
    whatever the edges' labels and directions: the start nodes an
    extend evaluates from (see the module docstring)."""
    frontier = {node for node in touched if view.has_node(node)}
    seeds = set(frontier)
    for _ in range(hops):
        frontier = {n for node in frontier for n in view.neighbours(node)} - seeds
        seeds |= frontier
    return frozenset(seeds)


class LRUCache:
    """Least-recently-used mapping with hit/miss/eviction accounting."""

    def __init__(self, capacity: int, stats: CacheStats | None = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        #: Per-key in-flight markers for single-flight get_or_create.
        self._inflight: dict[Hashable, threading.Event] = {}

    def get(self, key: Hashable, default: V = None) -> V:  # type: ignore[assignment]
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value  # type: ignore[return-value]

    def put(self, key: Hashable, value: object) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], V]) -> V:
        """Return the cached value, creating and caching it on miss.

        Single-flight per key: the first thread to miss becomes the
        creator and runs ``factory`` outside the lock (it may be an
        expensive compilation); concurrent misses on the same key wait
        for the creator and then read the published value, counted as
        ``dedup_waits`` (plus the eventual hit). If the factory raises,
        the error propagates to the creator and one of the waiters
        retries as the new creator.
        """
        while True:
            with self._lock:
                value = self._entries.get(key, _MISSING)
                if value is not _MISSING:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return value  # type: ignore[return-value]
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    self.stats.misses += 1
                    creating = True
                else:
                    self.stats.dedup_waits += 1
                    creating = False
            if not creating:
                # The wait can dominate a request's plan stage (another
                # thread is compiling); make it visible in traces.
                with span("cache.dedup_wait"):
                    event.wait()
                continue  # re-probe: value published, or factory failed
            try:
                created = factory()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()
                raise
            self.put(key, created)
            with self._lock:
                self._inflight.pop(key, None)
            event.set()
            return created

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"LRUCache(capacity={self.capacity}, size={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"evictions={self.stats.evictions})"
        )


class _ResultEntry:
    """One cached answer set with its version stamp, footprint and
    fingerprint.

    ``rendered`` is whatever byte form of ``result`` a caller asked to
    keep beside it (:meth:`SemanticResultCache.rendered`) and ``etag``
    the digest of those bytes (:meth:`SemanticResultCache.etag`),
    computed once: both are functions of the answer set alone, so they
    survive a restamp and die with the entry — invalidation, eviction
    and ``clear`` drop them.
    """

    __slots__ = ("version", "footprint", "fingerprint", "result", "rendered", "etag")

    def __init__(self, version: int, footprint, result, fingerprint):
        self.version = version
        self.footprint = footprint
        self.fingerprint = fingerprint
        self.result = result
        self.rendered: bytes | None = None
        self.etag: str | None = None


class SemanticResultCache:
    """LRU result cache with footprint-based invalidation.

    ``delta_source`` is
    :meth:`~repro.graph.property_graph.PropertyGraph.deltas_since` (or
    any ``version -> chain | None`` callable); without one — or when it
    returns ``None`` because the bounded delta log no longer covers the
    entry's version — a stale entry simply invalidates, reproducing
    the old global per-version flush.
    """

    def __init__(
        self,
        capacity: int,
        stats: CacheStats | None = None,
        *,
        delta_source=None,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        self._delta_source = delta_source
        self._entries: OrderedDict[Hashable, _ResultEntry] = OrderedDict()
        self._lock = threading.Lock()
        #: Memoised chain summaries keyed by (from_version, to_version).
        #: Versions are monotonic, so entries never go stale; the dict
        #: is bounded FIFO. One mutation followed by K stale-entry
        #: lookups summarises the chain once, not K times.
        self._summary_memo: OrderedDict = OrderedDict()

    _SUMMARY_MEMO_CAPACITY = 32

    def _chain_summary(self, from_version: int, to_version: int):
        """The (memoised) summary of exactly the deltas in
        ``(from_version, to_version]``, or ``None`` when the log no
        longer covers them."""
        memo_key = (from_version, to_version)
        with self._lock:
            summary = self._summary_memo.get(memo_key)
        if summary is not None:
            return summary
        deltas = self._delta_source(from_version)
        if deltas is None:
            return None
        # The chain is contiguous and runs past `to_version` when the
        # graph has moved on since the reader's snapshot: cut it there.
        summary = summarize_deltas(deltas[: to_version - from_version])
        with self._lock:
            self._summary_memo[memo_key] = summary
            while len(self._summary_memo) > self._SUMMARY_MEMO_CAPACITY:
                self._summary_memo.popitem(last=False)
        return summary

    def get(self, key: Hashable, version: int):
        """The cached answers valid at ``version``, or ``None``.

        See :meth:`get_with_outcome` for the full lookup semantics.
        """
        return self.get_with_outcome(key, version)[0]

    def get_with_outcome(self, key: Hashable, version: int):
        """``(result, outcome, extension, fingerprint)`` for a lookup at
        ``version``.

        ``outcome`` is one of ``"hit"`` / ``"restamp"`` /
        ``"refilter"`` / ``"extend"`` / ``"miss"`` / ``"invalidated"``;
        ``result`` is ``None`` unless the outcome is a hit, restamp or
        refilter. ``extension`` is ``None`` unless it is an extend, and
        then ``(kept, touched, hops)``: the caller serves ``kept`` plus
        its evaluation restricted to :func:`extension_seeds` of
        ``touched`` and ``hops``, and puts that. Exact version match is
        a plain hit. An older stamp triggers the semantic check; a
        surviving entry is re-stamped, or replaced by its refiltered
        answers, at ``version`` so the next lookup is exact again. A
        *newer* stamp (a reader holding an older snapshot than a
        concurrent writer) is treated as a miss — recomputing against
        the older snapshot is always sound. ``fingerprint`` is the one
        :meth:`put` stored, unless the outcome is a miss or an
        invalidation (``None``).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.version == version:
                self._entries.move_to_end(key)
                return entry.result, self._count("hit"), None, entry.fingerprint
            if (
                entry is None
                or entry.version > version
                or self._delta_source is None
            ):
                return None, self._count("miss"), None, None
            footprint = entry.footprint
            entry_version = entry.version
        # Delta fetch, footprint intersection and refilter run outside
        # the lock, on the deltas in (entry_version, version] only.
        outcome, kept, summary = "invalidated", entry.result, None
        if footprint is not None:
            with span("cache.delta_check"):
                summary = self._chain_summary(entry_version, version)
        if summary is not None and not footprint.affected_by(summary):
            outcome = "restamp"
        elif summary is not None and footprint.path_local:
            if summary.rest is not None and not footprint.affected_by(summary.rest):
                outcome = "refilter"  # only the removals touch it
            elif (hops := footprint.extension_hops(summary)) is not None:
                outcome = "extend"
            removed = summary.removed
            if outcome != "invalidated" and removed:
                with span("cache.refilter"):
                    kept = frozenset(
                        answer for answer in entry.result
                        if all(removed.isdisjoint(p.elements) for p in answer.paths)
                    )
        with self._lock:
            current = self._entries.get(key)
            if current is not entry or entry.version != entry_version:
                return None, self._count("miss"), None, None  # raced with an update
            fingerprint = entry.fingerprint
            if outcome == "extend":
                # The entry stays until the caller puts the extension.
                return None, self._count(outcome), (kept, summary.touched, hops), fingerprint
            if outcome == "restamp":
                entry.version = version
            elif outcome == "refilter":
                # A new entry without kept bytes or etag: the first
                # render of the filtered answers wins again.
                entry = self._entries[key] = _ResultEntry(version, footprint, kept, fingerprint)
            else:
                del self._entries[key]
                return None, self._count(outcome), None, None
            self._entries.move_to_end(key)
            return entry.result, self._count(outcome), None, fingerprint

    def _count(self, outcome: str) -> str:
        """Account one request's ``outcome`` (lock held); returns it."""
        self.stats.add(**CACHE_OUTCOMES[outcome])
        return outcome

    def bypass(self) -> str:
        """Account a request that deliberately skipped the cache — not
        a lookup, so ``hit_rate`` only reflects real probes."""
        with self._lock:
            return self._count("bypass")

    def put(self, key: Hashable, version: int, footprint, result, fingerprint=None):
        """Store ``result`` computed at ``version`` with ``footprint``
        and ``fingerprint``; return the answer set to serve for it.

        A racing writer with an older snapshot never downgrades a
        newer stamp. An equal answer set put again at the same version
        (a query repeated within a batch, or racing misses) leaves the
        first in place, kept bytes and all, and gets it back.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if existing.version > version:
                    return result
                if existing.version == version and existing.result == result:
                    return existing.result
                self._entries.move_to_end(key)
            self._entries[key] = _ResultEntry(version, footprint, result, fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return result

    def rendered(
        self,
        key: Hashable,
        result,
        render: Callable[[object], bytes] | None = None,
    ) -> bytes | None:
        """The bytes kept beside ``result`` under ``key``.

        Only an entry holding that very object (``is``) counts: its
        bytes are returned, or — given ``render`` — made by
        ``render(result)`` outside the lock and kept if the entry still
        holds ``result`` and no bytes by then (kept bytes never change).
        A ``result`` the cache does not hold (cache off, or since
        invalidated, evicted or recomputed) is rendered, never kept.
        Without ``render`` this only looks: ``None`` when there are no
        bytes. Not a lookup — counters and LRU order stay untouched.
        """
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.result is result
                and entry.rendered is not None
            ):
                return entry.rendered
        if render is None:
            return None
        data = render(result)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.result is result and entry.rendered is None:
                entry.rendered = data
        return data

    def etag(self, key: Hashable, result) -> str | None:
        """The first 128 bits of the SHA-256 of the bytes :meth:`rendered`
        keeps for ``result`` under ``key``, as 32 lowercase hex digits;
        ``None`` while there are none. Hashed once, on the first ask,
        and kept on the entry beside the bytes."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.result is not result or entry.rendered is None:
                return None
            if entry.etag is None:
                entry.etag = hashlib.sha256(entry.rendered).hexdigest()[:32]
            return entry.etag

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:
        return (
            f"SemanticResultCache(capacity={self.capacity}, "
            f"size={len(self)}, hits={self.stats.hits}, "
            f"misses={self.stats.misses}, restamps={self.stats.restamps}, "
            f"refilters={self.stats.refilters}, "
            f"extends={self.stats.extends}, "
            f"invalidations={self.stats.invalidations})"
        )
