"""A minimal blocking HTTP client for the serving front end.

Used by the benchmarks, examples and tests; also the reference for
what a real client must do: POST JSON, check the status, and decode
answer payloads back into ``frozenset[Answer]`` with
:func:`repro.server.wire.decode_answers` — after which results compare
``==`` against a local :meth:`GraphService.evaluate`.

A cached ``/query`` reply carries an ``ETag``, the digest of its answer
bytes. The client holds, per query text (at most :data:`HELD_SETS`,
least recently used out), the last set it decoded under one and sends
the etag back: a ``not_modified`` reply returns the held frozenset,
with no body to parse or decode.

Built on :mod:`http.client` (stdlib), one keep-alive connection per
instance. Not thread-safe: give each client thread its own instance
(connections are cheap; the server multiplexes them all).
"""

from __future__ import annotations

import json
from collections import OrderedDict
from http.client import HTTPConnection
from typing import Any

from repro.errors import WireError
from repro.gpc.answers import Answer
from repro.server import wire

__all__ = ["HELD_SETS", "HttpServiceClient", "ServerReply", "HttpServiceError"]

#: How many query texts one client holds a validated answer set for.
HELD_SETS = 64


class HttpServiceError(WireError):
    """A non-2xx reply; carries the HTTP status and decoded body."""

    def __init__(self, status: int, payload: Any):
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload!r}")
        self.status = status
        self.payload = payload


class ServerReply:
    """One decoded reply: status, the JSON payload (or raw text for
    non-JSON bodies like ``/metrics``), and the response headers."""

    __slots__ = ("status", "payload", "headers")

    def __init__(
        self, status: int, payload: Any, headers: dict[str, str] | None = None
    ):
        self.status = status
        self.payload = payload
        self.headers = headers or {}

    def raise_for_status(self) -> "ServerReply":
        if not 200 <= self.status < 300:
            raise HttpServiceError(self.status, self.payload)
        return self


class HttpServiceClient:
    """Talk to one :class:`~repro.server.app.GraphServer`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._conn = HTTPConnection(host, port, timeout=timeout)
        #: text -> (etag, the set decoded under it), least recent first.
        self._held: OrderedDict[str, tuple[str, frozenset[Answer]]] = OrderedDict()

    # -- transport ------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Any | None = None,
        headers: dict[str, str] | None = None,
    ) -> ServerReply:
        """One round trip; GETs reconnect once if the keep-alive
        connection was closed server-side (e.g. after a drain notice).

        Non-idempotent requests are never replayed: once a POST may
        have reached the server (the connection died mid-exchange), a
        blind retry could apply ``/mutate`` ops twice — the caller
        gets the connection error and decides.
        """
        encoded = None if body is None else json.dumps(body).encode("utf-8")
        sent = {"Content-Type": "application/json"} if encoded else {}
        if headers:
            sent.update(headers)
        try:
            self._conn.request(method, path, body=encoded, headers=sent)
            response = self._conn.getresponse()
        except (ConnectionError, BrokenPipeError, OSError):
            self._conn.close()
            if method != "GET":
                raise
            self._conn.connect()
            self._conn.request(method, path, body=encoded, headers=sent)
            response = self._conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if not raw:
            payload: Any = None
        elif content_type.startswith("application/json"):
            payload = json.loads(raw)
        else:
            payload = raw.decode("utf-8")
        return ServerReply(
            response.status, payload, dict(response.getheaders())
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HttpServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- endpoints ------------------------------------------------------

    def query(
        self,
        text: str,
        *,
        use_cache: bool = True,
        deadline_ms: float | None = None,
        trace_id: str | None = None,
    ) -> frozenset[Answer]:
        """``POST /query`` decoded back to the exact answer frozenset.

        ``deadline_ms`` bounds server-side evaluation (a blown budget
        raises :class:`HttpServiceError` with status 504);
        ``trace_id`` forces the request's trace into the server's
        store under that id, retrievable via :meth:`trace`.

        With ``use_cache`` the set held for ``text`` is revalidated: a
        ``not_modified`` under the etag sent returns it (``is``), any other
        raises :class:`WireError`, and a full reply replaces it.
        """
        body: dict[str, Any] = {"query": text, "use_cache": use_cache}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        held = self._held.get(text) if use_cache else None
        if held is not None:
            body["etag"] = held[0]
        headers = {"X-Trace-Id": trace_id} if trace_id is not None else None
        reply = self.request(
            "POST", "/query", body, headers=headers
        ).raise_for_status()
        etag = reply.headers.get("ETag")
        if isinstance(reply.payload, dict) and reply.payload.get("not_modified") is True:
            if held is None or etag != f'"{held[0]}"':
                sent = body.get("etag")
                raise WireError(f"not_modified under {etag!r} for {text!r}, sent {sent!r}")
            self._held.move_to_end(text)
            return held[1]
        answers = wire.decode_answers(reply.payload)
        if use_cache:
            self._held.pop(text, None)
            if etag:
                self._held[text] = (etag.strip('"'), answers)
                if len(self._held) > HELD_SETS:
                    self._held.popitem(last=False)
        return answers

    def batch(
        self, queries: list[str], *, use_cache: bool = True
    ) -> "list[frozenset[Answer] | HttpServiceError]":
        """``POST /batch``; failing positions hold the error object."""
        reply = self.request(
            "POST", "/batch", {"queries": queries, "use_cache": use_cache}
        ).raise_for_status()
        results: list = []
        for item in reply.payload["results"]:
            if "error" in item:
                results.append(HttpServiceError(400, item))
            else:
                results.append(wire.decode_answers(item))
        return results

    def mutate(self, ops: list[dict]) -> ServerReply:
        """``POST /mutate`` (ops apply in order; see the server docs)."""
        return self.request("POST", "/mutate", {"ops": ops}).raise_for_status()

    def explain(self, text: str, *, analyze: bool = False) -> str:
        from urllib.parse import quote

        target = f"/explain?query={quote(text)}"
        if analyze:
            target += "&analyze=1"
        reply = self.request("GET", target).raise_for_status()
        return reply.payload["explain"]

    def lint(self, text: str) -> dict:
        """``POST /lint`` — static-analysis diagnostics for one query.

        Returns the raw payload: ``{"diagnostics": [...],
        "provably_empty": bool, "version": int}``. Total — malformed
        queries come back as ``GPC000``/``GPC001`` diagnostics, not
        HTTP errors.
        """
        reply = self.request("POST", "/lint", {"query": text})
        return reply.raise_for_status().payload

    def stats(self) -> dict:
        return self.request("GET", "/stats").raise_for_status().payload

    def trace(self, trace_id: str | None = None) -> dict:
        """``GET /trace`` — one span tree by id, or the recent/slow
        ring buffers plus store counters."""
        target = "/trace" if trace_id is None else f"/trace?id={trace_id}"
        return self.request("GET", target).raise_for_status().payload

    def metrics(self) -> str:
        """``GET /metrics`` — the Prometheus text exposition body."""
        return self.request("GET", "/metrics").raise_for_status().payload

    def insights(
        self, *, sort: str | None = None, limit: int | None = None
    ) -> dict:
        """``GET /insights`` — top-K fingerprint-aggregated workload
        profiles (``sort`` ∈ total_time / calls / misestimate / errors)
        plus registry counters."""
        from urllib.parse import quote

        params = []
        if sort is not None:
            params.append(f"sort={quote(str(sort))}")
        if limit is not None:
            params.append(f"limit={limit}")
        target = "/insights" + ("?" + "&".join(params) if params else "")
        return self.request("GET", target).raise_for_status().payload

    def healthz(self) -> dict:
        return self.request("GET", "/healthz").raise_for_status().payload
