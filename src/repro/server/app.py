"""The asyncio HTTP serving front end.

:class:`GraphServer` wraps a :class:`~repro.service.GraphService` or
:class:`~repro.cluster.ClusterService` behind a JSON-over-HTTP API
(stdlib only — :func:`asyncio.start_server` plus the minimal HTTP/1.1
layer in :mod:`repro.server.protocol`):

==============  ======================================================
``POST /query``   evaluate one query
``POST /batch``   evaluate a list of queries in one service batch
``POST /mutate``  apply a list of graph mutations in order
``GET /explain``  the planner's strategy summary (``?query=...``,
                  add ``&analyze=1`` to run it and report engine work)
``GET /lint``     static-analysis diagnostics (``?query=...``; also
                  ``POST`` with ``{"query": ...}``) — no evaluation
``GET /stats``    transport + service metrics (one composed payload)
``GET /trace``    recorded span trees (``?id=<trace-id>`` for one)
``GET /metrics``  the same counters in Prometheus text exposition
``GET /healthz``  liveness, version, drain state
==============  ======================================================

Three behaviours make it a *server* rather than plumbing:

- **admission control** — a bounded in-flight semaphore caps
  concurrent evaluations and a limit on the requests waiting for a
  slot (``max_queue_depth``) sheds overload with ``429`` (``503``
  while draining); sheds are counted in
  :class:`~repro.server.stats.ServerStats` and never touch the
  service;
- **one request path** — ``POST /query`` is a one-member
  ``POST /batch``: each takes one slot and makes one worker-thread hop
  that runs :meth:`evaluate_batch` and renders every member's reply,
  each member inside its own copy of the request's context. Nothing
  waits on a timer or on another request;
- **graceful drain** — :meth:`drain` stops accepting connections,
  answers new requests with ``503``, lets every admitted request
  finish (those still waiting for a slot included), then closes the
  underlying service.

Two observability behaviours ride every request:

- **end-to-end tracing** — each request runs under a root span from
  the server's :class:`~repro.obs.trace.Tracer`. A client-supplied
  ``X-Trace-Id`` header is honoured (and forces the trace into the
  store past sampling); the assigned id is echoed back in the
  response's ``X-Trace-Id`` header and resolvable via ``GET
  /trace?id=...``. The slot wait and the hop are ``server.slot_wait``
  and ``server.dispatch``; the service, engine and ``server.encode``
  spans of every member nest under the dispatch.
- **deadlines** — ``POST /query`` accepts ``"deadline_ms"``; the
  budget rides the request context into the engine's deepening loops,
  and a blown deadline answers ``504`` with the partial span tree
  recorded in the trace store (5xx traces bypass sampling).

Answers travel in the canonical :mod:`repro.server.wire` encoding, so
an HTTP client can reconstruct the exact ``frozenset[Answer]`` the
service computed. That encoding is a function of the answer set alone,
so its bytes are kept beside the set in the service's result cache
(:meth:`~repro.service.GraphService.rendered`): a cache hit is answered
by writing those bytes plus the current ``"version"``. Equal bytes mean
an equal set, so their digest is an exact validator: a cached reply
carries it as ``ETag``, and a ``/query`` sending it back as ``"etag"``
is answered ``{"not_modified": true, "version": N}`` instead.
"""

from __future__ import annotations

import asyncio
import contextvars
import gc
import json
import logging
import re
import threading
import time
from contextlib import asynccontextmanager
from typing import Any, AsyncIterator

from repro.errors import DeadlineExceededError, GPCError
from repro.gpc import analysis
from repro.obs import metrics as obs_metrics
from repro.obs import Tracer, TraceStore, deadline_scope, span
from repro.server import wire
from repro.server.protocol import (
    HttpRequest,
    PreRendered,
    ProtocolError,
    json_body,
    read_request,
    render_response,
)
from repro.server.stats import ServerStats
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId

__all__ = ["GraphServer", "ServerHandle", "serve_background"]


#: What a ``/query`` ``"etag"`` may be: the server mints 32 of these.
_ETAG = re.compile(r"[0-9a-f]{1,64}")


def _use_cache(body: dict) -> bool:
    """A request's ``"use_cache"``: a JSON boolean, true when absent."""
    use_cache = body.get("use_cache", True)
    if not isinstance(use_cache, bool):
        raise ProtocolError(400, '"use_cache" must be true or false')
    return use_cache


def _labels(op: dict) -> list:
    """A mutation op's ``"labels"``: a list of strings, empty when absent."""
    labels = op.get("labels", [])
    if not isinstance(labels, list) or not all(
        isinstance(label, str) for label in labels
    ):
        raise ProtocolError(400, '"labels" must be a list of strings')
    return labels


def _limit(request: HttpRequest, default: int | None) -> int | None:
    """A ``?limit=``: an integer of at least 1, ``default`` when absent."""
    param = request.params.get("limit")
    if param is None:
        return default
    try:
        limit = int(param)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ProtocolError(400, f"bad limit {param!r}: must be an integer >= 1")
    return limit


#: Content type of the Prometheus text exposition format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How many fingerprints get per-fingerprint labeled series in
#: ``GET /metrics`` (bounds the exposition size; the full registry
#: stays available as JSON under ``GET /insights``).
INSIGHTS_METRICS_TOPK = 10

#: Default number of fingerprints returned by ``GET /insights``.
INSIGHTS_DEFAULT_LIMIT = 20

#: ``GET /metrics`` series whose names predate the stats tree: the
#: path the walk would use → the name dashboards were built on.
METRIC_NAMES = {
    "repro_server_latency": "repro_server_request_latency",
    "repro_service_engine": "repro_engine",
    "repro_cluster_engine": "repro_engine",
    "repro_cluster_per_worker": "repro_cluster_worker_latency_seconds",
}


class GraphServer:
    """Serve a graph service over HTTP with admission control, one
    request path into the service and graceful drain.

    ``service`` is anything with the ``GraphService`` surface —
    ``evaluate_batch`` / ``explain`` / ``stats`` / ``version`` / the
    mutation delegations / ``close`` — so :class:`ClusterService`
    plugs in unchanged.

    Example
    -------
    >>> from repro.graph.generators import social_network
    >>> from repro.server import serve_background, HttpServiceClient
    >>> from repro.service import GraphService
    >>> with serve_background(GraphService(social_network(8))) as handle:
    ...     client = HttpServiceClient(*handle.address)
    ...     answers = client.query("TRAIL (x:Person) -[:knows]-> (y:Person)")
    ...     client.close()
    >>> isinstance(answers, frozenset)
    True
    """

    #: Endpoints and the methods they answer to (else 405).
    ROUTES = {
        "/query": ("POST",),
        "/batch": ("POST",),
        "/mutate": ("POST",),
        "/explain": ("GET",),
        "/lint": ("GET", "POST"),
        "/stats": ("GET",),
        "/trace": ("GET",),
        "/metrics": ("GET",),
        "/insights": ("GET",),
        "/healthz": ("GET",),
    }

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 8,
        max_queue_depth: int = 64,
        close_service: bool = True,
        tracing: bool = True,
        trace_store: TraceStore | None = None,
        log_requests: bool = False,
    ):
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        self.service = service
        self.stats = ServerStats()
        self.tracer = Tracer(
            trace_store if trace_store is not None else TraceStore(),
            enabled=tracing,
        )
        self.log_requests = log_requests
        self._access_log = logging.getLogger("repro.server.access")
        self.max_in_flight = max_in_flight
        self.max_queue_depth = max_queue_depth
        self._host = host
        self._port = port
        self._close_service = close_service
        self._server: asyncio.base_events.Server | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._all_idle: asyncio.Event | None = None
        self._waiting_slots = 0
        self._draining = False
        self._drained = False
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._semaphore = asyncio.Semaphore(self.max_in_flight)
        self._all_idle = asyncio.Event()
        self._all_idle.set()
        await asyncio.to_thread(self.service.snapshot)
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        # A warm, quiet heap, and only after the bind succeeded (a
        # failed start must not leave a frozen heap behind): the
        # snapshot the first query would wait for is built above, and
        # what exists now — the graph and that snapshot above all —
        # leaves the cyclic collector's way until drain(). Left in,
        # every full collection walks it: 150 ms on a 10k-node graph,
        # one /query in 22.
        gc.freeze()
        return self.address

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight
        requests (those waiting for a slot included), then close the
        underlying service. Idempotent."""
        if self._server is None or self._drained:
            return
        self._draining = True
        with self.stats.lock:
            self.stats.draining = True
        self._server.close()
        await self._server.wait_closed()
        # Every admitted request completes: each one that waits for a
        # slot gets it as the ones ahead release theirs.
        await self._all_idle.wait()
        for writer in list(self._writers):
            writer.close()
        self._drained = True
        gc.unfreeze()
        if self._close_service:
            await asyncio.to_thread(self.service.close)

    async def serve_forever(self) -> None:
        """Run until cancelled (the asyncio-native entry point)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._count(connections=1)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    self._count(requests=1, responses=1, client_errors=1)
                    writer.write(
                        render_response(
                            exc.status, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload, headers = await self._handle_request(request)
                keep_alive = request.keep_alive and not self._draining
                writer.write(
                    render_response(
                        status, payload, keep_alive=keep_alive, headers=headers
                    )
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass  # the peer is gone; there is nobody left to tell

    async def _handle_request(
        self, request: HttpRequest
    ) -> tuple[int, Any, dict[str, str]]:
        started = time.perf_counter()
        self._count(requests=1)
        self._active_requests += 1
        self._all_idle.clear()
        # A client-supplied X-Trace-Id is an explicit request to trace:
        # it names the root span's trace and bypasses store sampling.
        with self.tracer.trace(
            "request",
            trace_id=request.headers.get("x-trace-id"),
            path=request.path,
            method=request.method,
        ) as root:
            try:
                status, payload = await self._route(request)
            except ProtocolError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except DeadlineExceededError as exc:
                # Before GPCError (its base class): a blown deadline is
                # the request's budget running out, not a bad request.
                # The partial span tree lands in the store below (5xx
                # traces bypass sampling).
                self._count(timeouts=1)
                status, payload = 504, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            except GPCError as exc:
                # Library errors are the client's: bad syntax, unknown ids,
                # type errors. The message names the exception class so the
                # caller can tell a ParseError from an UnknownIdError.
                status, payload = 400, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            # The boundary that must keep serving: whatever escaped the
            # typed handlers above is reported to the client as a 500.
            except Exception as exc:  # pragma: no cover - lint: allow-broad-except
                status, payload = 500, {
                    "error": f"internal error: {type(exc).__name__}: {exc}"
                }
            finally:
                self._active_requests -= 1
                if self._active_requests == 0:
                    self._all_idle.set()
            if root:
                root.set_attr("status", status)
                if status >= 500:
                    root.set_error(f"HTTP {status}")
        elapsed = time.perf_counter() - started
        with self.stats.lock:
            self.stats.add(
                responses=1,
                rejected=status in (429, 503),
                client_errors=status not in (200, 429, 503) and status < 500,
                server_errors=status >= 500,
            )
            self.stats.latency.record(elapsed)
        headers = {"X-Trace-Id": root.trace_id} if root else {}
        if self.log_requests:
            self._log_access(request, status, elapsed, root)
        return status, payload, headers

    async def _route(self, request: HttpRequest) -> tuple[int, Any]:
        methods = self.ROUTES.get(request.path)
        if methods is None:
            raise ProtocolError(404, f"no such endpoint {request.path!r}")
        if request.method not in methods:
            raise ProtocolError(
                405, f"{request.path} expects {' or '.join(methods)}"
            )
        if request.path == "/healthz":
            return 200, {
                "status": "draining" if self._draining else "ok",
                "version": self.service.version,
                "draining": self._draining,
            }
        if request.path == "/stats":
            return 200, self.stats_payload()
        if request.path == "/trace":
            return self._handle_trace(request)
        if request.path == "/metrics":
            return 200, self._render_metrics()
        if request.path == "/insights":
            return self._handle_insights(request)
        if request.path == "/lint":
            # Static analysis only — never touches the graph, so it is
            # answered during drain like the other read-only endpoints.
            return await self._handle_lint(request)
        if self._draining:
            raise ProtocolError(503, "server is draining")
        if request.path == "/query":
            return await self._handle_query(request)
        if request.path == "/batch":
            return await self._handle_batch(request)
        if request.path == "/mutate":
            return await self._handle_mutate(request)
        return await self._handle_explain(request)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    async def _handle_query(self, request: HttpRequest) -> tuple[int, Any]:
        with span("server.parse"):
            body = json_body(request)
            if not isinstance(body, dict) or not isinstance(
                body.get("query"), str
            ):
                raise ProtocolError(
                    400, 'body must be {"query": "<gpc>", ...}'
                )
            deadline_ms = body.get("deadline_ms")
            if deadline_ms is not None and (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0
            ):
                raise ProtocolError(
                    400, '"deadline_ms" must be a positive number'
                )
            etag = body.get("etag")
            if etag is not None and not (isinstance(etag, str) and _ETAG.fullmatch(etag)):
                raise ProtocolError(400, '"etag" must be 1 to 64 lowercase hex digits')
            use_cache = _use_cache(body)
        # The deadline enters the request's context before the hop copies
        # it: the engine's deepening loops see it in the worker thread,
        # and a wait for a slot spends it too. Cache-off requests never
        # revalidate.
        with deadline_scope(
            deadline_ms / 1000.0 if deadline_ms is not None else None
        ):
            (outcome,) = await self._evaluate(
                [body["query"]], use_cache, etag if use_cache else None, queries=1
            )
        if isinstance(outcome, Exception):
            raise outcome
        fragment, etag = outcome
        # Evaluated and encoded in the worker thread: the event loop
        # only appends the version.
        return 200, PreRendered(
            wire.with_version(fragment, self.service.version),
            headers={"ETag": f'"{etag}"'} if etag else None,
        )

    async def _handle_batch(self, request: HttpRequest) -> tuple[int, Any]:
        with span("server.parse"):
            body = json_body(request)
            queries = body.get("queries") if isinstance(body, dict) else None
            if not isinstance(queries, list) or not all(
                isinstance(query, str) for query in queries
            ):
                raise ProtocolError(
                    400, 'body must be {"queries": ["<gpc>", ...]}'
                )
            use_cache = _use_cache(body)
        outcomes = await self._evaluate(queries, use_cache, batches=1)
        members = [
            json.dumps({"error": f"{type(outcome).__name__}: {outcome}"}).encode()
            if isinstance(outcome, Exception)
            else outcome[0]
            for outcome in outcomes
        ]
        return 200, PreRendered(
            b'{"results": [%b], "version": %d}'
            % (b", ".join(members), self.service.version)
        )

    async def _evaluate(
        self, queries: list[str], use_cache: bool, etag: str | None = None, /, **counts: int
    ) -> list:
        """The one way into the service: wait for a slot, then one
        worker-thread hop that evaluates ``queries`` as one batch and
        renders each member's reply. Per member, in ``queries`` order:
        ``(reply bytes short of "version", etag)`` or the exception
        that is its outcome. ``counts`` are the endpoint's counters
        (``queries=1`` among them), bumped with ``dispatches`` once the
        slot is held."""
        async with self._slot():
            self._count(dispatches=1, **counts)
            with span("server.dispatch"):
                # One context copy per member, taken under the dispatch
                # span: each member's service, engine and encode spans
                # nest there, in this request's trace.
                contexts = [contextvars.copy_context() for _ in queries]
                return await asyncio.to_thread(
                    self._serve, queries, use_cache, etag, contexts
                )

    def _serve(
        self,
        queries: list[str],
        use_cache: bool,
        etag: str | None,
        contexts: list[contextvars.Context],
    ) -> list:
        """:meth:`_evaluate`'s worker-thread half."""
        outcomes = self.service.evaluate_batch(
            queries, use_cache=use_cache, return_exceptions=True, contexts=contexts
        )
        for index, (query, ctx, outcome) in enumerate(zip(queries, contexts, outcomes)):
            if isinstance(outcome, Exception):
                continue
            # Every evaluation has returned, so the member's context is
            # free to enter again.
            try:
                outcomes[index] = ctx.run(self._fragment, query, outcome, etag)
            # A failed render is that member's outcome alone.
            except Exception as exc:  # lint: allow-broad-except
                outcomes[index] = exc
        return outcomes

    async def _handle_mutate(self, request: HttpRequest) -> tuple[int, Any]:
        body = json_body(request)
        ops = body.get("ops") if isinstance(body, dict) else None
        if not isinstance(ops, list):
            raise ProtocolError(400, 'body must be {"ops": [{...}, ...]}')
        async with self._slot():
            results = await asyncio.to_thread(self._apply_mutations, ops)
        self._count(mutations=len(ops))
        return 200, {"results": results, "version": self.service.version}

    async def _handle_explain(self, request: HttpRequest) -> tuple[int, Any]:
        query = request.params.get("query")
        if not query:
            raise ProtocolError(400, "/explain expects ?query=<gpc>")
        analyze = request.params.get("analyze", "").lower() in (
            "1",
            "true",
            "yes",
        )
        async with self._slot():
            text = await asyncio.to_thread(
                self.service.explain, query, analyze=analyze
            )
        return 200, {"explain": text, "version": self.service.version}

    async def _handle_lint(self, request: HttpRequest) -> tuple[int, Any]:
        """Static-analysis diagnostics for one query, no evaluation.

        ``GET /lint?query=<gpc>`` or ``POST /lint`` with
        ``{"query": "<gpc>"}`` (POST avoids URL-length limits for big
        queries). Parse/type failures come back as ``GPC000``/``GPC001``
        diagnostics in a 200, not as a 4xx — the endpoint is total.
        """
        if request.method == "GET":
            query = request.params.get("query")
            if not query:
                raise ProtocolError(400, "/lint expects ?query=<gpc>")
        else:
            body = json_body(request)
            if not isinstance(body, dict) or not isinstance(
                body.get("query"), str
            ):
                raise ProtocolError(400, 'body must be {"query": "<gpc>"}')
            query = body["query"]
        # Linting compiles the plan (cached), so hop off the event loop.
        diagnostics = await asyncio.to_thread(self.service.lint, query)
        self._count(lints=1)
        return 200, {
            "diagnostics": [d.as_dict() for d in diagnostics],
            "provably_empty": any(
                d.code == analysis.PROVABLY_EMPTY for d in diagnostics
            ),
            "version": self.service.version,
        }

    def _fragment(self, query: str, answers, etag=None) -> tuple[bytes, str | None]:
        """One answer set's reply bytes, short of ``"version"``, and
        their etag: the bytes cached beside the set when there are some,
        else rendered now (and cached with the set, if the result cache
        holds it); the etag is kept beside them, ``None`` for a set the
        cache does not hold. When the request's ``etag`` is that very
        digest, the bytes are ``{"not_modified": true}`` instead."""
        with span("server.encode", answers=len(answers)) as encode:
            fragment = self.service.rendered(query, answers)
            reused = fragment is not None
            if not reused:
                fragment = self.service.rendered(query, answers, wire.render_answers)
            current = self.service.etag(query, answers)
            not_modified = current is not None and etag == current
            encode.set_attrs(
                {"bytes": len(fragment), "reused": reused, "not_modified": not_modified}
            )
        self._count(
            bodies_reused=reused, bodies_encoded=not reused, bodies_not_modified=not_modified
        )
        return (b'{"not_modified": true}' if not_modified else fragment), current

    # ------------------------------------------------------------------
    # Observability endpoints
    # ------------------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        """Bump transport counters — from the event loop or from a
        dispatch worker thread alike: ``ServerStats`` carries no lock
        of its own, so every writer holds ``stats.lock``."""
        with self.stats.lock:
            self.stats.add(**deltas)

    def stats_payload(self) -> dict[str, object]:
        """What ``GET /stats`` serves: the transport counters with the
        owning service's own stats under ``"service"``, so one scrape
        carries the whole serving stack."""
        return {**self.stats.as_dict(), "service": self.service.stats.as_dict()}

    def _handle_trace(self, request: HttpRequest) -> tuple[int, Any]:
        store = self.tracer.store
        trace_id = request.params.get("id")
        if trace_id:
            tree = store.find(trace_id)
            if tree is None:
                raise ProtocolError(404, f"no recorded trace {trace_id!r}")
            return 200, {"trace": tree}
        limit = _limit(request, None)
        return 200, {
            "recent": store.recent(limit),
            "slow": store.slow(limit),
            "counters": store.counters(),
        }

    def _handle_insights(self, request: HttpRequest) -> tuple[int, Any]:
        """Top-K fingerprint-aggregated workload profiles as JSON.

        ``?sort=`` picks the ranking (``total_time`` default, or
        ``calls`` / ``misestimate`` / ``errors``); ``?limit=`` bounds
        the result count. Answered during drain, like the other
        read-only observability endpoints.
        """
        registry = getattr(self.service, "insights", None)
        if registry is None:
            raise ProtocolError(
                404, "the service exposes no insights registry"
            )
        sort = request.params.get("sort", "total_time")
        limit = _limit(request, INSIGHTS_DEFAULT_LIMIT)
        try:
            top = registry.top(sort=sort, limit=limit)
        except ValueError as exc:
            raise ProtocolError(400, str(exc)) from exc
        return 200, {
            "insights": top,
            "counters": registry.counters(),
            "sort": sort,
            "limit": limit,
        }

    def _render_metrics(self) -> PreRendered:
        """The whole serving stack's counters as one Prometheus text
        exposition: each stats tree under its prefix."""
        stats = self.service.stats
        sections = {"repro_server": self.stats, stats.metrics_prefix: stats}
        insights = getattr(self.service, "insights", None)
        if insights is not None and insights.enabled:
            # Bounded top-K per-fingerprint series; registry-level
            # counters already flow via the stats "insights" record.
            sections["repro_insights"] = insights.labeled_series(INSIGHTS_METRICS_TOPK)
        sections["repro_traces"] = self.tracer.store.counters()
        body = obs_metrics.render_metrics(sections, METRIC_NAMES)
        return PreRendered(body.encode("utf-8"), content_type=METRICS_CONTENT_TYPE)

    def _log_access(
        self, request: HttpRequest, status: int, elapsed: float, root
    ) -> None:
        """One structured JSON line per answered request."""
        record: dict[str, Any] = {
            "method": request.method,
            "path": request.path,
            "status": status,
            "latency_ms": round(elapsed * 1000.0, 3),
        }
        if root:
            record["trace_id"] = root.trace_id
        self._access_log.info(json.dumps(record, sort_keys=True))

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    @asynccontextmanager
    async def _slot(self) -> AsyncIterator[None]:
        """One bounded in-flight evaluation slot; sheds with 429 when
        ``max_queue_depth`` requests are already waiting for one."""
        if self._waiting_slots >= self.max_queue_depth:
            raise ProtocolError(429, "server is saturated, retry later")
        self._waiting_slots += 1
        try:
            with span("server.slot_wait"):
                await self._semaphore.acquire()
        finally:
            self._waiting_slots -= 1
        try:
            yield
        finally:
            self._semaphore.release()

    # ------------------------------------------------------------------
    # Mutations (run in a worker thread)
    # ------------------------------------------------------------------

    def _apply_mutations(self, ops: list) -> list:
        """Apply ops in order through the service's locking
        delegations. Non-transactional: a failing op stops the run and
        surfaces as 400, earlier ops stay applied (the response's
        ``applied`` count says how many)."""
        results: list = []
        for index, op in enumerate(ops):
            try:
                results.append(self._apply_one(op))
            except ProtocolError:
                raise
            except GPCError as exc:
                raise ProtocolError(
                    400,
                    f"op {index} failed after {index} applied: "
                    f"{type(exc).__name__}: {exc}",
                ) from exc
        return results

    def _apply_one(self, op: Any) -> Any:
        if not isinstance(op, dict) or not isinstance(op.get("op"), str):
            raise ProtocolError(400, f'malformed op {op!r}: expected {{"op": ...}}')
        kind = op["op"]
        service = self.service
        if kind == "add_node":
            node = service.add_node(
                wire._decode_key(op.get("key")),
                _labels(op),
                op.get("properties") or None,
            )
            return wire.encode_id(node)
        if kind == "add_edge":
            edge = service.add_edge(
                wire._decode_key(op.get("key")),
                NodeId(wire._decode_key(op.get("source"))),
                NodeId(wire._decode_key(op.get("target"))),
                _labels(op),
                op.get("properties") or None,
            )
            return wire.encode_id(edge)
        if kind == "add_undirected_edge":
            edge = service.add_undirected_edge(
                wire._decode_key(op.get("key")),
                NodeId(wire._decode_key(op.get("endpoint_a"))),
                NodeId(wire._decode_key(op.get("endpoint_b"))),
                _labels(op),
                op.get("properties") or None,
            )
            return wire.encode_id(edge)
        if kind == "set_property":
            service.set_property(
                wire.decode_id(op.get("element")),
                op.get("key"),
                op.get("value"),
            )
            return None
        if kind == "remove_node":
            service.remove_node(NodeId(wire._decode_key(op.get("key"))))
            return None
        if kind == "remove_edge":
            service.remove_edge(
                DirectedEdgeId(wire._decode_key(op.get("key")))
            )
            return None
        if kind == "remove_undirected_edge":
            service.remove_undirected_edge(
                UndirectedEdgeId(wire._decode_key(op.get("key")))
            )
            return None
        raise ProtocolError(400, f"unknown mutation op {kind!r}")

    def __repr__(self) -> str:
        where = f"{self.address[0]}:{self.address[1]}" if self.address else "unbound"
        return (
            f"GraphServer({where}, service={type(self.service).__name__}, "
            f"draining={self._draining})"
        )


# ---------------------------------------------------------------------------
# Background serving for synchronous callers (tests, benches, demos)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A :class:`GraphServer` running on a dedicated event-loop thread.

    ``stop()`` drains gracefully and joins the thread; the handle is a
    context manager so tests and demos cannot leak the loop.
    """

    def __init__(
        self,
        server: GraphServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server, stop the loop, join the thread (idempotent)."""
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop
            ).result(timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_background(service, **kwargs) -> ServerHandle:
    """Start a :class:`GraphServer` on its own daemon thread.

    Blocks until the socket is bound and returns a
    :class:`ServerHandle` whose ``address`` is ready to connect to.
    Startup failures (e.g. a taken port) re-raise in the caller.
    """
    server = GraphServer(service, **kwargs)
    started = threading.Event()
    holder: dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        # Startup failed: captured here, re-raised in the caller.
        except BaseException as exc:  # lint: allow-broad-except
            holder["error"] = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=run, daemon=True, name="gpc-server")
    thread.start()
    started.wait()
    error = holder.get("error")
    if error is not None:
        thread.join()
        raise error
    return ServerHandle(server, holder["loop"], thread)
