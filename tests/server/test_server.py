"""End-to-end tests for the HTTP serving front end.

Covers every endpoint round trip, HTTP-vs-direct answer equality on
randomized graphs over both service facades, admission-control sheds
under a saturated semaphore, the one-hop request path, and graceful
drain semantics.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

from repro.cluster import ClusterService
from repro.graph.generators import social_network
from repro.server import (
    GraphServer,
    HttpServiceClient,
    HttpServiceError,
    serve_background,
    wire,
)
from repro.service import GraphService

QUERY = "TRAIL (x:Person) -[:knows]-> (y:Person)"

QUERIES = [
    QUERY,
    "SIMPLE (x:Person) ~[:married]~ (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "TRAIL (x:Person) [-[e:knows]->]{1,2} (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL (y:Person) -[:lives_in]-> (c:City)",
]


def _graph(seed: int = 11):
    return social_network(num_people=12, friend_degree=2, seed=seed)


@pytest.fixture
def served():
    """A GraphService behind a background server, plus a client."""
    service = GraphService(_graph())
    with serve_background(service) as handle:
        with HttpServiceClient(*handle.address) as client:
            yield handle, client, service


class TestEndpointRoundTrips:
    def test_healthz(self, served):
        _, client, service = served
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == service.version
        assert payload["draining"] is False

    def test_query_round_trip(self, served):
        _, client, service = served
        assert client.query(QUERY) == service.evaluate(QUERY)

    def test_batch_round_trip(self, served):
        _, client, service = served
        results = client.batch(QUERIES[:3])
        for text, result in zip(QUERIES[:3], results):
            assert result == service.evaluate(text)

    def test_batch_keeps_siblings_on_error(self, served):
        _, client, service = served
        results = client.batch([QUERY, "TRAIL (broken", QUERIES[1]])
        assert results[0] == service.evaluate(QUERY)
        assert isinstance(results[1], HttpServiceError)
        assert "ParseError" in str(results[1])
        assert results[2] == service.evaluate(QUERIES[1])

    def test_mutate_full_surface(self, served):
        _, client, service = served
        before = service.version
        reply = client.mutate(
            [
                {"op": "add_node", "key": "n1", "labels": ["Person"],
                 "properties": {"name": "N1"}},
                {"op": "add_node", "key": "n2", "labels": ["Person"]},
                {"op": "add_edge", "key": "k12", "source": "n1",
                 "target": "n2", "labels": ["knows"]},
                {"op": "add_undirected_edge", "key": "m12",
                 "endpoint_a": "n1", "endpoint_b": "n2",
                 "labels": ["married"]},
                {"op": "set_property", "element": {"n": "n1"},
                 "key": "name", "value": "renamed"},
                {"op": "remove_undirected_edge", "key": "m12"},
                {"op": "remove_edge", "key": "k12"},
                {"op": "remove_node", "key": "n2"},
            ]
        )
        assert reply.payload["version"] == service.version > before
        results = reply.payload["results"]
        assert results[0] == {"n": "n1"}
        assert results[2] == {"d": "k12"}
        assert results[3] == {"u": "m12"}
        # The mutations really happened (and the caches track them):
        from repro.graph.ids import NodeId

        assert service.graph.has_node(NodeId("n1"))
        assert not service.graph.has_node(NodeId("n2"))
        assert (
            service.graph.get_property(NodeId("n1"), "name") == "renamed"
        )

    def test_mutation_visible_to_queries(self, served):
        _, client, service = served
        baseline = len(client.query(QUERY))
        client.mutate(
            [
                {"op": "add_node", "key": "x1", "labels": ["Person"]},
                {"op": "add_node", "key": "x2", "labels": ["Person"]},
                {"op": "add_edge", "key": "xe", "source": "x1",
                 "target": "x2", "labels": ["knows"]},
            ]
        )
        assert len(client.query(QUERY)) == baseline + 1

    def test_mutate_failure_reports_applied_prefix(self, served):
        _, client, service = served
        reply = client.request(
            "POST",
            "/mutate",
            {"ops": [
                {"op": "add_node", "key": "ok1", "labels": ["Person"]},
                {"op": "add_node", "key": "ok1"},  # duplicate: fails
            ]},
        )
        assert reply.status == 400
        assert "op 1 failed after 1 applied" in reply.payload["error"]
        from repro.graph.ids import NodeId

        assert service.graph.has_node(NodeId("ok1"))

    def test_unknown_op_is_400(self, served):
        _, client, _ = served
        reply = client.request(
            "POST", "/mutate", {"ops": [{"op": "explode"}]}
        )
        assert reply.status == 400

    def test_use_cache_must_be_a_json_boolean(self, served):
        """``"false"`` is a non-empty string: read through ``bool`` it
        would switch the cache on."""
        _, client, service = served
        for path, body in (
            ("/query", {"query": QUERY}),
            ("/batch", {"queries": [QUERY]}),
        ):
            reply = client.request("POST", path, {**body, "use_cache": "false"})
            assert reply.status == 400
            assert '"use_cache"' in reply.payload["error"]
        assert service.stats.queries == 0
        reply = client.request(
            "POST", "/query", {"query": QUERY, "use_cache": False}
        )
        assert reply.status == 200
        assert service.stats.result_cache.bypasses == 1

    def test_labels_must_be_a_list_of_strings(self, served):
        """A bare string is not one label: through ``frozenset`` it
        would become one label per character."""
        _, client, service = served
        version = service.version
        for labels in ("Person", ["Person", 7], {"Person": 1}):
            reply = client.request(
                "POST",
                "/mutate",
                {"ops": [{"op": "add_node", "key": "n", "labels": labels}]},
            )
            assert reply.status == 400
            assert '"labels"' in reply.payload["error"]
        assert service.version == version

    def test_nan_deadline_is_400(self, served):
        """``NaN`` is not JSON; read as a float it would be a deadline
        that never expires (``monotonic() >= nan`` is false)."""
        _, client, service = served
        for constant in (float("nan"), float("inf"), float("-inf")):
            reply = client.request(
                "POST", "/query", {"query": QUERY, "deadline_ms": constant}
            )
            assert reply.status == 400
            assert "is not a JSON number" in reply.payload["error"]
        assert service.stats.queries == 0

    def test_nan_property_is_400(self, served):
        _, client, service = served
        version = service.version
        reply = client.request(
            "POST",
            "/mutate",
            {"ops": [{"op": "add_node", "key": "n", "labels": ["Person"],
                      "properties": {"age": float("nan")}}]},
        )
        assert reply.status == 400
        assert "NaN is not a JSON number" in reply.payload["error"]
        assert service.version == version

    def test_explain(self, served):
        _, client, service = served
        text = client.explain(QUERIES[2])
        assert text == service.explain(QUERIES[2])
        assert "plan:" in text

    def test_stats_composed(self, served):
        _, client, service = served
        client.query(QUERY)
        payload = client.stats()
        assert payload["queries"] >= 1
        assert payload["dispatches"] >= 1
        assert payload["rejected"] == 0
        assert payload["service"]["queries"] == service.stats.queries
        assert "latency" in payload and "p99_s" in payload["latency"]

    def test_http_errors(self, served):
        _, client, _ = served
        assert client.request("GET", "/nope").status == 404
        assert client.request("GET", "/query").status == 405
        assert client.request("POST", "/query", {"nope": 1}).status == 400
        assert client.request("GET", "/explain").status == 400
        reply = client.request("POST", "/query", {"query": "TRAIL (x"})
        assert reply.status == 400
        assert "ParseError" in reply.payload["error"]

    @pytest.mark.parametrize(
        "hostile",
        [
            "SHORTEST " + "[" * 1000 + "(x)" + "]" * 1000,
            "SHORTEST (x)" + " -> ()" * 300,
        ],
    )
    def test_hostile_nesting_is_400_and_the_connection_lives(
        self, served, hostile
    ):
        handle, client, _ = served
        for method, path, body in [
            ("POST", "/query", {"query": hostile}),
            ("GET", f"/explain?query={quote(hostile)}", None),
        ]:
            reply = client.request(method, path, body)
            assert reply.status == 400, reply.payload
            assert "ParseError" in reply.payload["error"]
            assert client.request("GET", "/healthz").status == 200
        results = client.batch([QUERY, hostile])
        assert not isinstance(results[0], HttpServiceError)
        assert "ParseError" in str(results[1])
        # /lint is total: a parse error is a diagnostic, not a status.
        codes = [d["code"] for d in client.lint(hostile)["diagnostics"]]
        assert codes == ["GPC000"]
        assert client.query(QUERY)
        assert handle.server.stats.connections == 1

    def test_nesting_at_the_limit_is_served(self, served):
        from repro.gpc.parser import MAX_NESTING_DEPTH as depth

        _, client, service = served
        for text in [
            "SHORTEST " + "[" * depth + "(x:City)" + "]" * depth,
            "SHORTEST (x:City)" + " (x)" * (depth - 1),
            "SHORTEST (x:City)" + " << x.name = 'c0' >>" * (depth - 1),
        ]:
            assert client.query(text) == service.evaluate(text)
            assert "plan:" in client.explain(text)

    def test_keep_alive_connection_reused(self, served):
        handle, client, _ = served
        for _ in range(3):
            client.healthz()
        # One client connection serves all three requests.
        assert handle.server.stats.connections == 1


class TestAnswerEquality:
    """The acceptance bar: HTTP-decoded answers are frozenset-identical
    to direct evaluation, on randomized graphs, over both facades."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_graph_service(self, seed):
        reference = GraphService(_graph(seed))
        expected = {
            text: reference.evaluate(text, use_cache=False)
            for text in QUERIES
        }
        reference.close()
        with serve_background(GraphService(_graph(seed))) as handle:
            with HttpServiceClient(*handle.address) as client:
                for text in QUERIES:
                    assert client.query(text) == expected[text]

    @pytest.mark.parametrize("seed", [3, 17])
    def test_cluster_service(self, seed):
        reference = GraphService(_graph(seed))
        expected = {
            text: reference.evaluate(text, use_cache=False)
            for text in QUERIES
        }
        reference.close()
        cluster = ClusterService(
            _graph(seed), backend="serial", num_workers=3
        )
        with serve_background(cluster) as handle:
            with HttpServiceClient(*handle.address) as client:
                for text in QUERIES:
                    assert client.query(text) == expected[text]
                results = client.batch(QUERIES)
                for text, result in zip(QUERIES, results):
                    assert result == expected[text]


def _post_raw(address, path: str, body: dict) -> bytes:
    """One POST, the reply's body exactly as it came off the socket."""
    connection = HTTPConnection(*address, timeout=30.0)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        connection.close()


def _bodies(handle) -> tuple[int, int]:
    stats = handle.server.stats
    return stats.bodies_encoded, stats.bodies_reused


class TestEncodeOnce:
    """A cached answer set is serialised once: a hit writes the bytes
    kept beside it plus the current version."""

    #: 24 answers and 120: whatever the size, the dispatch's worker
    #: thread encodes it, once.
    GRAPHS = {
        "small": lambda: _graph(),
        "large": lambda: social_network(
            num_people=40, friend_degree=3, seed=11
        ),
    }
    FACADES = {
        "graph": GraphService,
        "cluster": lambda graph: ClusterService(
            graph, backend="thread", num_workers=2
        ),
    }

    @pytest.mark.parametrize("facade", FACADES)
    @pytest.mark.parametrize("size", GRAPHS)
    def test_a_hit_is_byte_identical_to_a_fresh_render(self, size, facade):
        service = self.FACADES[facade](self.GRAPHS[size]())
        with serve_background(service) as handle:
            miss = _post_raw(handle.address, "/query", {"query": QUERY})
            assert _bodies(handle) == (1, 0)
            hit = _post_raw(handle.address, "/query", {"query": QUERY})
            assert _bodies(handle) == (1, 1)
            answers = service.evaluate(QUERY)
            fresh = wire.encode_answers(answers)
            fresh["version"] = service.version
            assert (
                miss
                == hit
                == json.dumps(fresh, sort_keys=True).encode("utf-8")
            )
            assert wire.decode_answers(json.loads(hit)) == answers

    def test_restamp_keeps_the_bytes_and_changes_only_version(self, served):
        handle, client, service = served
        before = _post_raw(handle.address, "/query", {"query": QUERY})
        city = sorted(service.graph.nodes_with_label("City"))[0]
        client.mutate(
            [
                {
                    "op": "set_property",
                    "element": wire.encode_id(city),
                    "key": "mayor",
                    "value": "nobody",
                }
            ]
        )
        after = _post_raw(handle.address, "/query", {"query": QUERY})
        assert service.stats.result_cache.restamps == 1
        assert _bodies(handle) == (1, 1)
        assert before != after
        stem, _, old = before.rpartition(b'"version": ')
        assert after == stem + b'"version": %d}' % service.version
        assert int(old[:-1]) == service.version - 1

    def test_invalidating_write_encodes_again(self, served):
        handle, client, service = served
        before = client.query(QUERY)
        one, two, *_ = sorted(service.graph.nodes_with_label("Person"))
        client.mutate(
            [
                {
                    "op": "add_edge",
                    "key": "fresh",
                    "source": two.key,
                    "target": one.key,
                    "labels": ["knows"],
                }
            ]
        )
        after = client.query(QUERY)
        assert service.stats.result_cache.extends == 1
        assert _bodies(handle) == (2, 0)
        assert len(after) == len(before) + 1
        assert after == service.evaluate(QUERY)
        assert client.query(QUERY) == after
        assert _bodies(handle) == (2, 1)

    def test_eviction_and_clear_caches_encode_again(self):
        service = GraphService(_graph(), result_cache_size=1)
        with serve_background(service) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                client.query(QUERIES[1])  # evicts QUERY's entry
                client.query(QUERY)
                assert _bodies(handle) == (3, 0)
                client.query(QUERY)
                assert _bodies(handle) == (3, 1)
                service.clear_caches()
                client.query(QUERY)
                assert _bodies(handle) == (4, 1)

    def test_use_cache_false_never_attaches_or_reuses(self, served):
        handle, client, service = served
        for _ in range(2):
            assert client.query(QUERY, use_cache=False) == service.evaluate(
                QUERY, use_cache=False
            )
        assert _bodies(handle) == (2, 0)
        cached = service.evaluate(QUERY)
        assert service.rendered(QUERY, cached) is None
        client.query(QUERY)
        assert _bodies(handle) == (3, 0)
        assert service.rendered(QUERY, cached) is not None
        client.query(QUERY, use_cache=False)
        assert _bodies(handle) == (4, 0)

    def test_batch_members_reuse_and_match_query_bytes(self, served):
        handle, client, service = served
        texts = [QUERY, "TRAIL (broken", QUERIES[1], QUERY]
        first = _post_raw(handle.address, "/batch", {"queries": texts})
        assert _bodies(handle) == (2, 1)  # the repeated member is a hit
        second = _post_raw(handle.address, "/batch", {"queries": texts})
        assert _bodies(handle) == (2, 4)
        assert first == second
        payload = json.loads(second)
        members = [
            {"error": payload["results"][1]["error"]}
            if text == "TRAIL (broken"
            else wire.encode_answers(service.evaluate(text))
            for text in texts
        ]
        assert "ParseError" in members[1]["error"]
        whole = {"results": members, "version": service.version}
        assert second == json.dumps(whole, sort_keys=True).encode("utf-8")
        # /query serves the bytes /batch left on the entry.
        single = _post_raw(handle.address, "/query", {"query": QUERY})
        assert _bodies(handle) == (2, 5)
        assert json.loads(single) == {
            **payload["results"][0],
            "version": service.version,
        }

    def test_counters_show_in_stats_and_metrics(self, served):
        _, client, _ = served
        client.query(QUERY)
        client.query(QUERY)
        stats = client.stats()
        assert (stats["bodies_encoded"], stats["bodies_reused"]) == (1, 1)
        lines = client.metrics().splitlines()
        assert "repro_server_bodies_encoded 1" in lines
        assert "repro_server_bodies_reused 1" in lines


class _BlockingService(GraphService):
    """Evaluation blocks until the gate opens — makes saturation and
    drain windows deterministic."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.closed = False

    def evaluate_batch(self, queries, *args, **kwargs):
        assert self.gate.wait(30.0), "test gate never opened"
        return super().evaluate_batch(queries, *args, **kwargs)

    def close(self):
        self.closed = True
        super().close()


class TestAdmissionControl:
    def test_query_queue_overflow_sheds_429(self):
        service = _BlockingService(_graph())
        with serve_background(
            service, max_in_flight=1, max_queue_depth=1
        ) as handle:
            clients = [HttpServiceClient(*handle.address) for _ in range(3)]
            try:
                replies: dict[int, int] = {}

                def fire(index):
                    replies[index] = clients[index].request(
                        "POST", "/query", {"query": QUERY}
                    ).status

                server = handle.server
                # 1st: holds the only slot, blocked on the gate;
                # 2nd: waits for the slot (depth 1 reached).
                threads = [threading.Thread(target=fire, args=(i,)) for i in range(2)]
                threads[0].start()
                _wait_for(lambda: server.stats.dispatches == 1)
                threads[1].start()
                _wait_for(lambda: server._waiting_slots == 1)
                # 3rd: one request already waits -> shed, never evaluated.
                shed = clients[2].request("POST", "/query", {"query": QUERY})
                assert shed.status == 429
                service.gate.set()
                for thread in threads:
                    thread.join(30.0)
                assert replies == {0: 200, 1: 200}
                assert server.stats.rejected == 1
                assert server.stats.queries == server.stats.dispatches == 2
                assert service.stats.queries == 2
            finally:
                service.gate.set()
                for client in clients:
                    client.close()

    def test_batch_semaphore_saturation_sheds_429(self):
        service = _BlockingService(_graph())
        with serve_background(
            service, max_in_flight=1, max_queue_depth=1
        ) as handle:
            first = HttpServiceClient(*handle.address)
            second = HttpServiceClient(*handle.address)
            third = HttpServiceClient(*handle.address)
            try:
                statuses: dict[str, int] = {}

                def fire(name, client):
                    statuses[name] = client.request(
                        "POST", "/batch", {"queries": [QUERY]}
                    ).status

                a = threading.Thread(target=fire, args=("a", first))
                a.start()
                time.sleep(0.15)  # a holds the only slot (gate-blocked)
                b = threading.Thread(target=fire, args=("b", second))
                b.start()
                time.sleep(0.15)  # b waits for the slot: depth 1 used
                shed = third.request("POST", "/batch", {"queries": [QUERY]})
                assert shed.status == 429
                assert handle.server.stats.rejected >= 1
                service.gate.set()
                a.join(30.0)
                b.join(30.0)
                assert statuses == {"a": 200, "b": 200}
            finally:
                service.gate.set()
                for client in (first, second, third):
                    client.close()

    def test_rejected_never_reaches_the_service(self):
        service = _BlockingService(_graph())
        with serve_background(
            service, max_in_flight=1, max_queue_depth=0
        ) as handle:
            client = HttpServiceClient(*handle.address)
            try:
                # Depth 0: every /query is shed before it is queued.
                reply = client.request("POST", "/query", {"query": QUERY})
                assert reply.status == 429
                assert handle.server.stats.queries == 0
                assert service.stats.queries == 0
            finally:
                service.gate.set()
                client.close()


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.time() + timeout
    while not condition():
        assert time.time() < deadline, "condition never held"
        time.sleep(0.005)


def _wait_behind_a_held_slot(handle, service, waiting, before_release=None):
    """Saturate a ``max_in_flight=1`` server over a ``_BlockingService``:
    one query holds the only slot behind the gate, then ``waiting``
    more arrive and wait for it; once all of them wait (and
    ``before_release`` has run) the gate opens. Returns every query's
    answers, the slot holder's first."""
    results: list = [None] * (1 + waiting)

    def fire(index):
        with HttpServiceClient(*handle.address) as client:
            results[index] = client.query(QUERY)

    server = handle.server
    threads = [threading.Thread(target=fire, args=(0,))]
    threads[0].start()
    _wait_for(lambda: server.stats.dispatches == 1)
    for index in range(1, 1 + waiting):
        threads.append(threading.Thread(target=fire, args=(index,)))
        threads[-1].start()
    _wait_for(lambda: server._waiting_slots == waiting)
    if before_release is not None:
        before_release()
    service.gate.set()
    for thread in threads:
        thread.join(30.0)
    return results


class _ThreadRecordingService(GraphService):
    """Records which thread evaluates and which one encodes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluated_on: list[int] = []
        self.rendered_on: list[int] = []

    def _execute_all(self, snap, jobs):
        self.evaluated_on.append(threading.get_ident())
        return super()._execute_all(snap, jobs)

    def rendered(self, *args, **kwargs):
        self.rendered_on.append(threading.get_ident())
        return super().rendered(*args, **kwargs)


class TestOneHop:
    def test_a_lone_query_evaluates_and_encodes_on_one_worker_thread(self):
        service = _ThreadRecordingService(
            social_network(num_people=40, friend_degree=3, seed=11)
        )
        with serve_background(service) as handle:
            with HttpServiceClient(*handle.address) as client:
                answers = client.query(QUERY)
            assert len(answers) > 64 and _bodies(handle) == (1, 0)
            threads = {*service.evaluated_on, *service.rendered_on}
            assert len(service.evaluated_on) == 1 and service.rendered_on
            # One hop off the event loop, for the evaluation and the
            # encoding alike.
            assert len(threads) == 1
            assert threads != {handle._thread.ident}

    def test_a_batch_evaluates_and_renders_every_member_in_one_hop(
        self, monkeypatch
    ):
        service = _ThreadRecordingService(_graph())
        with serve_background(service) as handle:
            hops: list = []
            to_thread = asyncio.to_thread

            def counted(func, *args, **kwargs):
                hops.append(func)
                return to_thread(func, *args, **kwargs)

            monkeypatch.setattr(asyncio, "to_thread", counted)
            with HttpServiceClient(*handle.address) as client:
                results = client.batch(QUERIES[:3])
            monkeypatch.undo()
            # One hop off the event loop evaluates the batch and renders
            # each of its members.
            assert len(hops) == 1
            assert len(service.evaluated_on) == 1
            assert len(service.rendered_on) >= 3
            threads = {*service.evaluated_on, *service.rendered_on}
            assert len(threads) == 1 and threads != {handle._thread.ident}
            assert results == [service.evaluate(text) for text in QUERIES[:3]]

    def test_a_failed_render_fails_that_member_alone(self, served):
        handle, client, service = served
        fragment = handle.server._fragment

        def failing_on_empty(query, answers, etag=None):
            if not answers:
                raise ValueError("unrenderable")
            return fragment(query, answers, etag)

        handle.server._fragment = failing_on_empty
        sibling, failed = client.batch([QUERY, "TRAIL (x:Nobody)"])
        assert sibling == service.evaluate(QUERY)
        assert isinstance(failed, HttpServiceError)
        assert "ValueError: unrenderable" in str(failed)


class TestGracefulDrain:
    def test_drain_finishes_in_flight_then_closes_service(self):
        service = _BlockingService(_graph())
        handle = serve_background(service)
        slow_client = HttpServiceClient(*handle.address)
        # During drain every response carries Connection: close and the
        # listener is gone, so each probe needs its own pre-established
        # connection.
        probe_client = HttpServiceClient(*handle.address)
        health_client = HttpServiceClient(*handle.address)
        outcome: dict = {}

        def slow_query():
            outcome["reply"] = slow_client.request(
                "POST", "/query", {"query": QUERY}
            )

        probe_client.healthz()  # establish the probe connections now
        health_client.healthz()
        slow = threading.Thread(target=slow_query)
        slow.start()
        deadline = time.time() + 10
        while handle.server.stats.queries < 1 and time.time() < deadline:
            time.sleep(0.01)

        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        deadline = time.time() + 10
        while not handle.server.stats.draining and time.time() < deadline:
            time.sleep(0.01)

        # New work on an established connection is shed with 503...
        refused = probe_client.request("POST", "/query", {"query": QUERY})
        assert refused.status == 503
        # ...while healthz still answers and reports the drain.
        health = health_client.request("GET", "/healthz")
        assert health.status == 200
        assert health.payload["status"] == "draining"

        # The admitted slow request completes once the gate opens.
        service.gate.set()
        slow.join(30.0)
        stopper.join(30.0)
        assert outcome["reply"].status == 200
        # Drain closed the underlying service.
        assert service.closed
        assert handle.server.stats.rejected >= 1
        slow_client.close()
        probe_client.close()
        health_client.close()

    def test_stop_is_idempotent(self):
        service = GraphService(_graph())
        handle = serve_background(service)
        with HttpServiceClient(*handle.address) as client:
            client.query(QUERY)
        handle.stop()
        handle.stop()

    def test_a_started_server_has_a_warm_frozen_heap_until_it_drains(self):
        service = GraphService(_graph())
        with serve_background(service):
            # Before any query: the snapshot is built, and what exists
            # is out of the cyclic collector's way.
            assert service.stats.snapshots_built == 1
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_queued_queries_survive_drain(self):
        service = _BlockingService(_graph())
        handle = serve_background(service, max_in_flight=1)
        stopper = threading.Thread(target=handle.stop)

        def stop_while_they_wait():
            # Three queries wait for the held slot; drain must let them
            # evaluate, not drop them.
            stopper.start()
            _wait_for(lambda: handle.server.stats.draining)

        results = _wait_behind_a_held_slot(handle, service, 3, stop_while_they_wait)
        stopper.join(30.0)
        assert not stopper.is_alive()
        expected = GraphService(_graph()).evaluate(QUERY)
        assert all(result == expected for result in results)


class TestServerValidation:
    def test_bad_parameters_rejected(self):
        service = GraphService(_graph())
        with pytest.raises(ValueError):
            GraphServer(service, max_in_flight=0)
        with pytest.raises(ValueError):
            GraphServer(service, max_queue_depth=-1)
        # Neither coalescing option exists: passing one is an error.
        with pytest.raises(TypeError):
            GraphServer(service, coalesce_max=16)
        with pytest.raises(TypeError):
            GraphServer(service, coalesce_window_s=0.0)
        service.close()

    def test_port_conflict_surfaces(self):
        service = GraphService(_graph())
        with serve_background(service, close_service=False) as handle:
            with pytest.raises(OSError):
                serve_background(
                    service, port=handle.address[1], close_service=False
                )
        service.close()
