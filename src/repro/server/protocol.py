"""A minimal HTTP/1.1 request/response layer over asyncio streams.

Just enough HTTP for the serving front end — stdlib only, no
framework: request-line + header parsing, ``Content-Length`` bodies,
keep-alive connection reuse, and JSON response rendering. Anything the
subset does not speak (chunked uploads, absurd header blocks) is
answered with the right 4xx/5xx instead of being guessed at.

The parser is strict where correctness matters (method/target shape,
Content-Length integrity, header size bounds) and tolerant where the
spec says to be (unknown headers pass through untouched, header names
are case-insensitive).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, NoReturn
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HttpRequest",
    "PreRendered",
    "ProtocolError",
    "read_request",
    "render_response",
    "json_body",
    "STATUS_REASONS",
]

#: Reason phrases for every status the server emits.
STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Upper bound on the request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024

#: Upper bound on request bodies (batches of queries, mutation lists).
MAX_BODY_BYTES = 16 * 1024 * 1024


class PreRendered:
    """A response body already serialised to bytes.

    Answer payloads are serialised once per cached answer set (large
    ones off the event loop, in a worker thread); wrapping the bytes
    in this marker lets :func:`render_response` skip the on-loop
    ``json.dumps``. A non-JSON ``content_type`` (the ``/metrics`` text
    exposition) rides the same marker, and so do ``headers`` that
    belong to the body (a ``/query`` reply's ``ETag``).
    """

    __slots__ = ("data", "content_type", "headers")

    def __init__(self, data: bytes, content_type: str = "application/json",
                 headers: Mapping[str, str] | None = None):
        self.data = data
        self.content_type = content_type
        self.headers = headers or {}


class ProtocolError(Exception):
    """A malformed or unsupported request; carries the HTTP status
    the connection handler should answer with before closing."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    #: Decoded query-string parameters (first value per name).
    params: dict[str, str]
    #: Header names lower-cased.
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            return False
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return True  # HTTP/1.1 default


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_head_bytes: int = MAX_HEAD_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> HttpRequest | None:
    """Parse one request off the stream.

    Returns ``None`` on a clean end-of-stream before any request byte
    (the client closed an idle keep-alive connection). Raises
    :class:`ProtocolError` for anything malformed — the caller answers
    with the carried status and closes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(431, "request head too large") from exc
    if len(head) > max_head_bytes:
        raise ProtocolError(431, "request head too large")

    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ProtocolError(400, "undecodable request head") from exc
    request_line, _, header_block = text.partition("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise ProtocolError(400, f"malformed request line {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(400, f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(501, "chunked transfer encoding not supported")

    split = urlsplit(target)
    path = unquote(split.path)
    params = {
        name: values[0]
        for name, values in parse_qs(split.query, keep_blank_values=True).items()
    }

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise ProtocolError(
                400, f"bad Content-Length {length_header!r}"
            ) from exc
        if length < 0:
            raise ProtocolError(400, f"bad Content-Length {length_header!r}")
        if length > max_body_bytes:
            raise ProtocolError(413, f"body of {length} bytes exceeds limit")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "truncated request body") from exc

    return HttpRequest(
        method=method,
        path=path,
        params=params,
        headers=headers,
        body=body,
        version=version,
    )


def _not_json(constant: str) -> NoReturn:
    """``json.loads``' hook for ``NaN`` / ``Infinity`` / ``-Infinity``,
    which RFC 8259 does not admit."""
    raise ProtocolError(400, f"invalid JSON body: {constant} is not a JSON number")


def json_body(request: HttpRequest) -> Any:
    """The request body as JSON (400 on anything else)."""
    if not request.body:
        raise ProtocolError(400, "expected a JSON body")
    try:
        return json.loads(request.body, parse_constant=_not_json)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(400, f"invalid JSON body: {exc}") from exc


def render_response(
    status: int,
    payload: Any,
    *,
    keep_alive: bool = True,
    headers: Mapping[str, str] | None = None,
) -> bytes:
    """Serialise one JSON response (status line, headers, body).

    ``payload`` is rendered with sorted keys so equal payloads are
    byte-identical on the wire, matching the deterministic answer
    encoding in :mod:`repro.server.wire` — unless it is already a
    :class:`PreRendered` body serialised off the event loop.
    """
    if isinstance(payload, PreRendered):
        body = payload.data
        content_type = payload.content_type
        headers = {**payload.headers, **(headers or {})}
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body
