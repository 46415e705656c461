"""Serving metrics for the HTTP front end.

:class:`ServerStats` covers what the transport layer adds on top of
the service runtime: request/response counts per endpoint outcome,
admission-control sheds, worker-thread dispatches, how many answer-set
bodies were serialised versus served from cached bytes (or not sent:
the client held them), and end-to-end request latency (slot wait +
evaluation + serialisation — a superset of the service-level
evaluation latency).

Like every record it carries no lock of its own: ``GraphServer``
holds ``lock`` around each write, whether it comes from the event loop
or from a dispatch worker thread. ``GET /stats`` serves ``as_dict()``
with the owning service's own stats under ``"service"``, so one scrape
carries the whole serving stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.counters import LatencyRecorder, SharedCounters

__all__ = ["ServerStats"]


@dataclass
class ServerStats(SharedCounters):
    """Aggregate metrics exposed by :class:`~repro.server.app.GraphServer`.

    ``rejected`` counts requests shed by admission control (429 queue
    overflow and 503 draining) — they never reach the service, so the
    service-level counters stay clean. ``dispatches`` counts the
    worker-thread hops into the service, one per ``/query`` and one per
    ``/batch``, so on ``/query`` traffic ``queries / dispatches`` is 1.
    """

    connections: int = 0
    requests: int = 0
    responses: int = 0
    #: Admission-control sheds (429 queue-depth overflow + 503 drain).
    rejected: int = 0
    #: 4xx answers that reached a handler (bad JSON, parse errors, ...).
    client_errors: int = 0
    #: Unexpected 5xx answers.
    server_errors: int = 0
    #: Requests that blew their ``deadline_ms`` budget (504 answers;
    #: also counted in ``server_errors``).
    timeouts: int = 0
    #: ``/query`` requests that got an in-flight slot.
    queries: int = 0
    #: ``evaluate_batch`` hops, from ``/query`` and ``/batch`` alike.
    dispatches: int = 0
    batches: int = 0
    mutations: int = 0
    #: ``/lint`` requests answered (static analysis only, no evaluation).
    lints: int = 0
    #: Answer-set bodies serialised for a reply...
    bodies_encoded: int = 0
    #: ...and replies that wrote the bytes cached beside the answer set
    #: instead (:meth:`~repro.service.GraphService.rendered`).
    bodies_reused: int = 0
    #: Replies of either kind that sent ``not_modified`` in place of the
    #: bytes: the ``/query``'s ``"etag"`` was their digest.
    bodies_not_modified: int = 0
    draining: bool = False
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
