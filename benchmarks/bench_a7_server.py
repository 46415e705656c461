"""Ablation A7 — HTTP serving: concurrent keep-alive clients vs serial
one-connection-per-query requests, and revalidated vs fetched reads.

Design choice under study: the one request path of
:class:`repro.server.GraphServer`. A ``POST /query`` takes one
in-flight slot and makes one worker-thread hop that evaluates and
encodes it; nothing waits on a timer or on another request, so what is
left to measure is the transport.

Three measurements, each on *both* service facades (single
:class:`GraphService` and sharded :class:`ClusterService`):

- **fidelity**: answers decoded from the HTTP payload are
  frozenset-identical to direct in-process ``GraphService.evaluate``
  — the wire encoding is lossless end to end;
- **throughput**: on a warm server (plans compiled, result caches
  populated — the steady serving state), ``CONCURRENCY`` keep-alive
  clients hammering ``/query`` together finish the same request count
  no slower than a serial client that opens one connection per query,
  with nothing shed. A transport comparison: both sides fetch and
  decode every body, neither revalidates;
- **revalidation**: the fidelity client, which holds every answer set
  with its etag, repeats ``/query`` of an unchanged text: each reply
  is ``not_modified``, the set it returns equals the reference, and
  the pass takes at most a third of the time the same requests take
  from a client that sends no validator.
"""

from __future__ import annotations

import threading
import time

from repro.bench.harness import Table
from repro.cluster import ClusterService
from repro.graph.generators import social_network
from repro.server import HttpServiceClient, serve_background, wire
from repro.service import GraphService

WORKLOAD = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "SIMPLE (x:Person) ~[:married]~ (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL (y:Person) -[:lives_in]-> (c:City)",
]

NUM_REQUESTS = 96
CONCURRENCY = 8
#: Each timed pass is the best of this many, taken alternately: the two
#: sides are ~1.2x apart, closer than one pass's run-to-run noise.
ROUNDS = 3
#: The text the revalidation pass repeats: the largest answer set (245
#: answers), whose body is what a revalidated read does not fetch.
REVALIDATED = WORKLOAD[2]
#: A revalidated read against a full one; ~6x apart on a 2-core host.
MAX_REVALIDATION_SHARE = 1 / 3


def _graph():
    return social_network(num_people=16, friend_degree=2, seed=7)


def _reference() -> dict[str, frozenset]:
    service = GraphService(_graph())
    expected = {
        text: service.evaluate(text, use_cache=False) for text in WORKLOAD
    }
    service.close()
    return expected


def _request_texts() -> list[str]:
    return [WORKLOAD[i % len(WORKLOAD)] for i in range(NUM_REQUESTS)]


def _fetch(client: HttpServiceClient, text: str) -> frozenset:
    """``/query`` without a validator: the whole body, decoded."""
    reply = client.request("POST", "/query", {"query": text})
    return wire.decode_answers(reply.raise_for_status().payload)


def _serial_pass(address) -> float:
    """One fresh connection per query, strictly sequential."""
    texts = _request_texts()
    started = time.perf_counter()
    for text in texts:
        client = HttpServiceClient(*address)
        _fetch(client, text)
        client.close()
    return time.perf_counter() - started


def _concurrent_pass(address) -> float:
    """CONCURRENCY keep-alive clients sharing the request count."""
    texts = _request_texts()
    chunks = [texts[i::CONCURRENCY] for i in range(CONCURRENCY)]
    errors: list[Exception] = []

    def worker(chunk):
        try:
            with HttpServiceClient(*address) as client:
                for text in chunk:
                    _fetch(client, text)
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(chunk,)) for chunk in chunks
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not errors, f"concurrent client failed: {errors[0]!r}"
    return elapsed


def _revalidation_pass(client, handle, expected) -> tuple[float, float]:
    """``(revalidated, fetched)`` seconds for ``NUM_REQUESTS`` reads of
    ``REVALIDATED``: from ``client``, which holds its set, and from a
    client that sends no validator; the best of ``ROUNDS`` each."""
    stats = handle.server.stats
    held = client.query(REVALIDATED)
    assert held == expected[REVALIDATED]
    revalidated_s = fetched_s = float("inf")
    with HttpServiceClient(*handle.address) as plain:
        for _ in range(ROUNDS):
            before = stats.bodies_not_modified
            started = time.perf_counter()
            for _ in range(NUM_REQUESTS):
                assert client.query(REVALIDATED) is held
            revalidated_s = min(revalidated_s, time.perf_counter() - started)
            assert stats.bodies_not_modified - before == NUM_REQUESTS
            started = time.perf_counter()
            for _ in range(NUM_REQUESTS):
                _fetch(plain, REVALIDATED)
            fetched_s = min(fetched_s, time.perf_counter() - started)
    return revalidated_s, fetched_s


def _run_facade(name: str, service, expected, table: Table) -> None:
    with serve_background(
        service, max_queue_depth=4 * NUM_REQUESTS
    ) as handle:
        with HttpServiceClient(*handle.address) as client:
            # Fidelity first — and it doubles as the warm-up that
            # compiles plans and fills the result caches.
            for text in WORKLOAD:
                assert client.query(text) == expected[text], (
                    f"{name}: HTTP-decoded answers diverged on {text!r}"
                )
            revalidated_s, fetched_s = _revalidation_pass(client, handle, expected)
        serial_s = concurrent_s = float("inf")
        for _ in range(ROUNDS):
            serial_s = min(serial_s, _serial_pass(handle.address))
            concurrent_s = min(concurrent_s, _concurrent_pass(handle.address))
        assert handle.server.stats.rejected == 0, (
            "benchmark load must not be shed"
        )
    table.add(
        name,
        NUM_REQUESTS,
        serial_s * 1000,
        concurrent_s * 1000,
        f"{serial_s / concurrent_s:.1f}x",
        revalidated_s * 1000,
        fetched_s * 1000,
    )
    assert revalidated_s <= MAX_REVALIDATION_SHARE * fetched_s, (
        f"{name}: {NUM_REQUESTS} revalidated reads took "
        f"{revalidated_s * 1000:.0f}ms, the same reads without a "
        f"validator {fetched_s * 1000:.0f}ms"
    )
    assert concurrent_s <= serial_s, (
        f"{name}: {CONCURRENCY} keep-alive clients took "
        f"{concurrent_s * 1000:.0f}ms, the serial per-connection pass "
        f"{serial_s * 1000:.0f}ms"
    )


def test_a7_http_serving_throughput():
    """Warm concurrent serving is no slower than serial per-connection
    requests, a revalidated read costs at most a third of a fetched
    one, and HTTP answers decode
    frozenset-identical to direct evaluation, on both service facades."""
    expected = _reference()
    table = Table(
        "A7: HTTP serving — concurrent vs serial per-connection, "
        "revalidated vs fetched",
        [
            "facade",
            "requests",
            "serial ms",
            f"{CONCURRENCY} clients ms",
            "speedup",
            "revalidated ms",
            "fetched ms",
        ],
    )
    _run_facade("GraphService", GraphService(_graph()), expected, table)
    _run_facade(
        "ClusterService",
        ClusterService(_graph(), backend="serial", num_workers=2),
        expected,
        table,
    )
    table.show()
