"""Bounded in-memory retention for finished traces.

Recording every trace forever is a memory leak; recording none makes
the tracer useless. :class:`TraceStore` keeps two ring buffers:

- ``recent`` — the last *capacity* sampled traces (deterministic head
  sampling: every ``sample_every``-th root span is kept, so retention
  is reproducible rather than probabilistic);
- ``slow`` — the last *slow_capacity* traces over the latency
  threshold, kept regardless of sampling.

Error traces and *forced* traces (the client sent ``X-Trace-Id``,
explicitly asking to be traced) always land in ``recent`` — slow and
broken requests are exactly the ones worth keeping, and an explicit
trace id is a promise that ``GET /trace?id=…`` will find the tree.

Traces are serialised to plain dicts on record, so the store never
pins live ``Span`` objects (or, transitively, exception strings'
tracebacks) beyond the request.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

__all__ = ["TraceStore"]


def _has_error(span_dict: dict) -> bool:
    if span_dict.get("error"):
        return True
    return any(_has_error(child) for child in span_dict.get("children", ()))


def _find_fingerprint(span_dict: dict) -> Optional[str]:
    """The first ``fingerprint`` attribute in the tree, depth-first.

    The service layer stamps it on whatever span is ambient at
    evaluate time — the request root locally, the ``server.dispatch``
    child behind the HTTP server — so the whole tree is searched.
    """
    found = (span_dict.get("attributes") or {}).get("fingerprint")
    if found is not None:
        return found
    for child in span_dict.get("children", ()):
        found = _find_fingerprint(child)
        if found is not None:
            return found
    return None


class TraceStore:
    """Ring-buffered retention of finished span trees."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        slow_capacity: int = 64,
        slow_threshold_s: float = 0.5,
        sample_every: int = 1,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.slow_threshold_s = slow_threshold_s
        self.sample_every = sample_every
        self._recent: deque[dict] = deque(maxlen=capacity)
        self._slow: deque[dict] = deque(maxlen=slow_capacity)
        #: ``trace_id`` → retained trees bearing it, oldest first. One
        #: list entry per ring occurrence (a slow tree sits in both
        #: rings and must survive in the index until *both* evict it),
        #: so entries are removed by identity, not equality.
        self._index: dict[str, list[dict]] = {}
        self._lock = threading.Lock()
        self._seen = 0
        self._recorded = 0
        self._dropped = 0
        self._slow_recorded = 0
        self._error_recorded = 0

    def record(self, root, *, forced: bool = False) -> Optional[dict]:
        """Consider one finished root span for retention.

        Returns the serialised tree when kept (in either buffer),
        ``None`` when sampled out. A ``fingerprint`` root-span
        attribute (stamped by the service layer's insights recording)
        is lifted to the top of the tree so slow-log entries cross-link
        to ``GET /insights`` without clients digging through
        attributes.
        """
        tree = root.to_dict()
        if tree is None:  # a NullSpan — tracing disabled
            return None
        fingerprint = _find_fingerprint(tree)
        if fingerprint is not None:
            tree["fingerprint"] = fingerprint
        with self._lock:
            self._seen += 1
            slow = tree["duration_s"] >= self.slow_threshold_s
            error = bool(_has_error(tree))
            sampled = (self._seen - 1) % self.sample_every == 0
            keep = forced or error or slow or sampled
            if not keep:
                self._dropped += 1
                return None
            self._recorded += 1
            self._append(self._recent, tree)
            if error:
                self._error_recorded += 1
            if slow:
                self._slow_recorded += 1
                self._append(self._slow, tree)
            return tree

    def _append(self, ring: deque, tree: dict) -> None:
        """Append with *explicit* eviction so the index stays exact.

        ``deque(maxlen=…)`` would silently drop the oldest entry,
        leaving a dangling index reference — evict by hand instead.
        """
        if ring.maxlen is not None and len(ring) == ring.maxlen:
            self._unindex(ring.popleft())
        ring.append(tree)
        trace_id = tree.get("trace_id")
        if trace_id is not None:
            self._index.setdefault(trace_id, []).append(tree)

    def _unindex(self, tree: dict) -> None:
        trace_id = tree.get("trace_id")
        bucket = self._index.get(trace_id)
        if bucket is None:
            return
        # Remove ONE occurrence by identity: the same tree object may
        # legitimately appear once per ring it was retained in.
        for position, candidate in enumerate(bucket):
            if candidate is tree:
                del bucket[position]
                break
        if not bucket:
            del self._index[trace_id]

    # -- retrieval ------------------------------------------------------

    def recent(self, limit: Optional[int] = None) -> list[dict]:
        """Most recent first."""
        with self._lock:
            items = list(self._recent)
        items.reverse()
        return items[:limit] if limit is not None else items

    def slow(self, limit: Optional[int] = None) -> list[dict]:
        """Slowest-log entries, most recent first."""
        with self._lock:
            items = list(self._slow)
        items.reverse()
        return items[:limit] if limit is not None else items

    def find(self, trace_id: str) -> Optional[dict]:
        """The retained tree for ``trace_id`` (newest match wins).

        O(1) via the trace-id index — a slow-log entry stays findable
        long after the recent ring has cycled past it.
        """
        with self._lock:
            bucket = self._index.get(trace_id)
            return bucket[-1] if bucket else None

    def counters(self) -> dict[str, int]:
        """Retention counters for the /metrics surface."""
        with self._lock:
            return {
                "seen": self._seen,
                "recorded": self._recorded,
                "dropped": self._dropped,
                "slow": self._slow_recorded,
                "errors": self._error_recorded,
                "retained": len(self._recent),
                "retained_slow": len(self._slow),
            }

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._slow.clear()
            self._index.clear()

    def __repr__(self) -> str:
        return (
            f"TraceStore(retained={len(self._recent)}, "
            f"slow={len(self._slow)}, seen={self._seen})"
        )
