"""The HTTP serving front end: network transport for the service layer.

This package puts :class:`~repro.service.GraphService` and
:class:`~repro.cluster.ClusterService` on the network — the last hop
of the serving stack. GPC's set semantics does the heavy lifting:
answer sets are frozensets of immutable values computed against
versioned immutable snapshots, so results serialise deterministically
and decode back to the exact set the engine produced
(:mod:`repro.server.wire`), over a stdlib-only asyncio HTTP/1.1
transport (:mod:`repro.server.protocol`).

- :mod:`repro.server.app` — :class:`GraphServer` (admission control,
  one request path — a slot, then one worker-thread hop — and
  graceful drain) and
  :func:`serve_background` for synchronous callers;
- :mod:`repro.server.wire` — the canonical answer encoding and its
  round-trip decoder;
- :mod:`repro.server.protocol` — minimal HTTP/1.1 over asyncio
  streams;
- :mod:`repro.server.client` — a small blocking client
  (:class:`HttpServiceClient`) used by benchmarks and demos;
- :mod:`repro.server.stats` — :class:`ServerStats` (sheds, dispatches,
  body reuse, request latency) composing the service's own metrics
  payload.
"""

from repro.server.app import GraphServer, ServerHandle, serve_background
from repro.server.client import HttpServiceClient, HttpServiceError, ServerReply
from repro.server.protocol import HttpRequest, ProtocolError
from repro.server.stats import ServerStats
from repro.server.wire import decode_answers, encode_answers

__all__ = [
    "GraphServer",
    "ServerHandle",
    "serve_background",
    "HttpServiceClient",
    "HttpServiceError",
    "ServerReply",
    "HttpRequest",
    "ProtocolError",
    "ServerStats",
    "encode_answers",
    "decode_answers",
]
