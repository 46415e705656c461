"""Request tracing: spans, context propagation, and span carriers.

A *trace* is a tree of :class:`Span`\\ s describing where one request's
time went — parse, slot wait, cache probe, plan, evaluate, and (for
the cluster) one span per shard. The design goals, in order:

- **zero cost when off** — every instrumentation point in the serving
  stack calls :func:`span`, which is a single ``contextvars`` lookup
  plus a ``None`` check when no trace is active. No timestamps, no
  allocation of real spans, no locks;
- **propagation across execution boundaries** — the active span lives
  in a :class:`~contextvars.ContextVar`, which asyncio tasks inherit
  automatically. Work handed between threads does not: callers
  capture :func:`contextvars.copy_context` per work item and run the
  item inside it (the HTTP server hands one copy per batch member to
  :meth:`GraphService.evaluate_batch`). Process pools
  cannot share objects at all, so spans cross that boundary as an
  explicit *carrier* (``(trace_id, parent_span_id)``) in the shard
  payload: the worker opens a detached span via :func:`remote_span`,
  serialises it with :meth:`Span.to_dict`, ships the dict back in the
  shard's outcome, and the gatherer re-parents it with
  :meth:`Span.adopt`;
- **bounded memory** — finished traces are serialised to plain dicts
  and ring-buffered by :class:`~repro.obs.store.TraceStore`.

Span timestamps are ``time.perf_counter`` based; serialised spans carry
``offset_s`` (start relative to the serialisation root) and
``duration_s``. Spans adopted from another process keep their own
worker-local offsets (clocks are not comparable across processes);
their durations remain meaningful.
"""

from __future__ import annotations

import time
import uuid
from contextvars import ContextVar
from typing import Any, Optional

__all__ = [
    "Span",
    "NULL_SPAN",
    "Tracer",
    "span",
    "current_span",
    "current_carrier",
    "remote_span",
]


#: The active span for the current task/thread context (``None`` when
#: no trace is in progress — the disabled fast path).
_CURRENT: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_obs_span", default=None
)


def _new_id(bits: int = 64) -> str:
    """A random hex id (collision-safe across processes)."""
    return uuid.uuid4().hex[: bits // 4]


class Span:
    """One timed stage of a request, with attributes and children.

    Spans form a tree per trace. Children are appended under the GIL
    (list.append is atomic), so concurrent batch threads may add
    children to a shared parent; the tree is only serialised when the
    request's root span ends, after every child has ended.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "children",
        "error",
        "_start",
        "_end",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        attributes: Optional[dict] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        #: Finished children: Span objects (same process) or already
        #: serialised dicts adopted from a worker process.
        self.children: list = []
        self.error: Optional[str] = None
        self._start = time.perf_counter()
        self._end: Optional[float] = None

    def __bool__(self) -> bool:
        return True

    # -- construction ---------------------------------------------------

    def child(self, name: str, attributes: Optional[dict] = None) -> "Span":
        """Open a child span (caller must :meth:`end` it)."""
        child = Span(name, self.trace_id, self.span_id, attributes)
        self.children.append(child)
        return child

    def adopt(self, span_dict: Optional[dict]) -> None:
        """Re-parent a serialised span (from a worker process or pool
        thread) under this span: its ``trace_id``/``parent_id`` are
        rewritten to this trace, its subtree kept intact."""
        if not span_dict:
            return
        adopted = dict(span_dict)
        adopted["trace_id"] = self.trace_id
        adopted["parent_id"] = self.span_id
        self.children.append(adopted)

    # -- recording ------------------------------------------------------

    def set_attr(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_attrs(self, mapping: dict) -> None:
        self.attributes.update(mapping)

    def record_error(self, exc: BaseException) -> None:
        self.error = f"{type(exc).__name__}: {exc}"

    def set_error(self, message: str) -> None:
        self.error = message

    def end(self) -> None:
        if self._end is None:
            self._end = time.perf_counter()

    @property
    def duration_s(self) -> float:
        end = self._end if self._end is not None else time.perf_counter()
        return max(0.0, end - self._start)

    # -- serialisation --------------------------------------------------

    def to_dict(self, base: Optional[float] = None) -> dict:
        """The span subtree as plain JSON-serialisable dicts.

        ``offset_s`` is relative to ``base`` (defaults to this span's
        own start, so a root serialises at offset 0.0). Dict children
        adopted from other processes are included as-is.
        """
        if base is None:
            base = self._start
        children = []
        for child in self.children:
            if isinstance(child, dict):
                children.append(child)
            else:
                children.append(child.to_dict(base))
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "offset_s": max(0.0, self._start - base),
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "error": self.error,
            "children": children,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"id={self.span_id}, children={len(self.children)})"
        )


class _NullSpan:
    """The no-op span: every recording method does nothing, truthiness
    is ``False`` so instrumentation can cheaply skip attribute work."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    name = "null"
    error = None
    attributes: dict = {}
    children: list = []
    duration_s = 0.0

    def __bool__(self) -> bool:
        return False

    def child(self, name, attributes=None):
        return self

    def adopt(self, span_dict) -> None:
        pass

    def set_attr(self, key, value) -> None:
        pass

    def set_attrs(self, mapping) -> None:
        pass

    def record_error(self, exc) -> None:
        pass

    def set_error(self, message) -> None:
        pass

    def end(self) -> None:
        pass

    def to_dict(self, base=None):
        return None

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


def current_span() -> "Span | _NullSpan | None":
    """The active span, or ``None`` when no trace is in progress."""
    return _CURRENT.get()


def current_carrier() -> Optional[tuple[str, str]]:
    """A ``(trace_id, span_id)`` carrier for crossing executor
    boundaries, or ``None`` when no trace is active."""
    active = _CURRENT.get()
    if active is None or not active:
        return None
    return (active.trace_id, active.span_id)


class _SpanScope:
    """``with span("name"):`` — a child of the ambient span, or a
    no-op when no trace is active."""

    __slots__ = ("_name", "_attributes", "_span", "_token")

    def __init__(self, name: str, attributes: Optional[dict]):
        self._name = name
        self._attributes = attributes
        self._span = NULL_SPAN
        self._token = None

    def __enter__(self):
        parent = _CURRENT.get()
        if parent is None or not parent:
            return NULL_SPAN
        child = parent.child(self._name, self._attributes)
        self._span = child
        self._token = _CURRENT.set(child)
        return child

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            if exc is not None:
                self._span.record_error(exc)
            self._span.end()
            _CURRENT.reset(self._token)
        return False


def span(name: str, **attributes: Any) -> _SpanScope:
    """Open a child span of the ambient one (no-op without a trace)."""
    return _SpanScope(name, attributes or None)


class _RemoteScope:
    """``with remote_span(...)``: a detached span recreated from a
    carrier on the far side of an executor boundary. The span becomes
    the ambient one for the scope (so engine spans nest under it);
    the caller ships ``scope_result.to_dict()`` home for adoption."""

    __slots__ = ("_span", "_token")

    def __init__(self, name: str, carrier, attributes: Optional[dict]):
        if carrier is None:
            self._span = NULL_SPAN
        else:
            trace_id, parent_id = carrier
            self._span = Span(name, trace_id, parent_id, attributes)
        self._token = None

    def __enter__(self):
        if self._span is not NULL_SPAN:
            self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            if exc is not None:
                self._span.record_error(exc)
            self._span.end()
            _CURRENT.reset(self._token)
        return False


def remote_span(
    name: str, carrier: Optional[tuple[str, str]], **attributes: Any
) -> _RemoteScope:
    """Recreate the trace context from ``carrier`` in a worker
    (no-op when the carrier is ``None`` — tracing was off)."""
    return _RemoteScope(name, carrier, attributes or None)


class _TraceScope:
    """``with tracer.trace("request"):`` — opens a root span, makes it
    ambient, and records the finished tree into the tracer's store."""

    __slots__ = ("_tracer", "_span", "_token", "_forced")

    def __init__(self, tracer: "Tracer", name: str, trace_id, attributes):
        if not tracer.enabled:
            self._span = NULL_SPAN
        else:
            self._span = Span(name, trace_id or _new_id(), None, attributes)
        self._tracer = tracer
        self._token = None
        #: A client-supplied trace id is an explicit request to trace:
        #: it bypasses head sampling in the store.
        self._forced = trace_id is not None

    def __enter__(self):
        if self._span is not NULL_SPAN:
            self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            if exc is not None:
                self._span.record_error(exc)
            self._span.end()
            _CURRENT.reset(self._token)
            self._tracer.store.record(self._span, forced=self._forced)
        return False


class Tracer:
    """Creates root spans and records finished traces into a
    :class:`~repro.obs.store.TraceStore`.

    ``enabled=False`` makes :meth:`trace` yield the null span, which in
    turn makes every nested :func:`span` call in the serving stack a
    no-op — the disabled-overhead guarantee the tracing benchmark
    gates.
    """

    def __init__(self, store=None, *, enabled: bool = True):
        from repro.obs.store import TraceStore

        self.store = store if store is not None else TraceStore()
        self.enabled = enabled

    def trace(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> _TraceScope:
        """Open a root span; pass ``trace_id`` to honour a client
        supplied id (forces the trace into the store)."""
        return _TraceScope(self, name, trace_id, attributes or None)

    def __repr__(self) -> str:
        return f"Tracer(enabled={self.enabled}, store={self.store!r})"
