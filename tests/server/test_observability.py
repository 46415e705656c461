"""End-to-end observability tests for the HTTP front end: trace
round trips (X-Trace-Id honoured and echoed, span trees retrievable
via ``/trace``), the ``/metrics`` Prometheus exposition over both
service facades, request deadlines (``deadline_ms`` -> 504 with the
partial trace recorded), batch trace propagation, and the structured
access log."""

from __future__ import annotations

import json
import logging
import time

import pytest

from repro.cluster import ClusterService
from repro.graph.generators import (
    complete_graph,
    social_network,
    transport_network,
)
from repro.server import HttpServiceClient, HttpServiceError, serve_background
from repro.obs import TraceStore
from repro.service import GraphService

QUERY = "TRAIL (x:Person) -[:knows]-> (y:Person)"
SLOW_QUERY = "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"


def _graph(seed: int = 11, people: int = 12):
    return social_network(num_people=people, friend_degree=2, seed=seed)


def _span_names(tree: dict) -> set[str]:
    names = {tree["name"]}
    for child in tree.get("children", []):
        names |= _span_names(child)
    return names


def _children(tree: dict, name: str) -> list[dict]:
    return [child for child in tree["children"] if child["name"] == name]


def _all_trace_ids(tree: dict) -> set[str]:
    ids = {tree["trace_id"]}
    for child in tree.get("children", []):
        ids |= _all_trace_ids(child)
    return ids


class TestTraceRoundTrip:
    def test_client_trace_id_is_honoured_echoed_and_retrievable(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                reply = client.request(
                    "POST",
                    "/query",
                    {"query": QUERY},
                    headers={"X-Trace-Id": "0123456789abcdef"},
                )
                assert reply.status == 200
                assert reply.headers.get("X-Trace-Id") == "0123456789abcdef"
                tree = client.trace("0123456789abcdef")["trace"]
        assert tree["name"] == "request"
        assert tree["attributes"]["path"] == "/query"
        assert tree["attributes"]["status"] == 200
        # Every serving stage shows up in the tree: the request's own
        # stages under the root, the service's and the encode under the
        # one worker-thread hop.
        assert [c["name"] for c in tree["children"]] == [
            "server.parse",
            "server.slot_wait",
            "server.dispatch",
        ]
        (dispatch,) = _children(tree, "server.dispatch")
        assert {
            "service.cache_probe",
            "service.plan",
            "service.eval",
            "server.encode",
        } <= _span_names(dispatch)
        assert _children(dispatch, "server.encode")
        # All stages belong to the client's trace, and the root's
        # stages, one after another, sum within its duration.
        assert _all_trace_ids(tree) == {"0123456789abcdef"}
        stage_sum = sum(c["duration_s"] for c in tree["children"])
        assert 0 < stage_sum <= tree["duration_s"]

    def test_encode_span_says_what_was_rendered_and_what_reused(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                spans = []
                for trace_id in ("aaaaaaaaaaaaaaa1", "aaaaaaaaaaaaaaa2"):
                    answers = client.query(QUERY, trace_id=trace_id)
                    tree = client.trace(trace_id)["trace"]
                    (dispatch,) = _children(tree, "server.dispatch")
                    (encode,) = _children(dispatch, "server.encode")
                    spans.append(encode["attributes"])
        assert spans[0]["reused"] is False and spans[1]["reused"] is True
        assert spans[0]["answers"] == spans[1]["answers"] == len(answers)
        assert spans[0]["bytes"] == spans[1]["bytes"] > 0

    def test_an_extend_shows_in_its_probe_span_metrics_and_insights(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                one, two, *_ = sorted(handle.server.service.graph.nodes_with_label("Person"))
                client.mutate([{"op": "add_edge", "key": "fresh", "source": two.key,
                                "target": one.key, "labels": ["knows"]}])
                client.query(QUERY, trace_id="bbbbbbbbbbbbbbb1")
                tree = client.trace("bbbbbbbbbbbbbbb1")["trace"]
                metrics = client.metrics()
                (entry,) = client.insights()["insights"]
        (dispatch,) = _children(tree, "server.dispatch")
        (probe,) = _children(dispatch, "service.cache_probe")
        # One edge added: the seeds are its two endpoints (L - 1 = 0).
        assert probe["attributes"] == {"hit": True, "outcome": "extend", "seeds": 2}
        assert "repro_service_result_cache_extends 1" in metrics.splitlines()
        assert entry["cache"]["extends"] == 1

    def test_every_request_gets_an_id_echoed(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                reply = client.request("POST", "/query", {"query": QUERY})
                assigned = reply.headers.get("X-Trace-Id")
                assert assigned
                assert client.trace(assigned)["trace"]["name"] == "request"

    def test_trace_listing_and_store_counters(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                listing = client.trace()
        assert listing["counters"]["seen"] >= 1
        assert listing["counters"]["recorded"] >= 1
        assert any(
            t["attributes"].get("path") == "/query"
            for t in listing["recent"]
        )

    @pytest.mark.parametrize("limit", ["0", "-1", "x"])
    def test_trace_limit_below_one_is_400(self, limit):
        # -1 would slice away the oldest trace, 0 every trace.
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                reply = client.request("GET", f"/trace?limit={limit}")
                assert reply.status == 400
                assert "bad limit" in reply.payload["error"]
                listing = client.request("GET", "/trace?limit=1").payload
        assert len(listing["recent"]) == 1

    def test_unknown_trace_id_is_404(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                with pytest.raises(HttpServiceError) as info:
                    client.trace("0000000000000000")
        assert info.value.status == 404

    def test_tracing_disabled_serves_without_ids(self):
        with serve_background(
            GraphService(_graph()), tracing=False
        ) as handle:
            with HttpServiceClient(*handle.address) as client:
                reply = client.request("POST", "/query", {"query": QUERY})
                assert reply.status == 200
                assert "X-Trace-Id" not in reply.headers
                listing = client.trace()
        assert listing["recent"] == []
        assert listing["counters"]["seen"] == 0

    def test_head_sampling_still_keeps_forced_traces(self):
        with serve_background(
            GraphService(_graph()), trace_store=TraceStore(sample_every=1000)
        ) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)  # sampled in (first)
                client.query(QUERY)  # sampled out
                client.query(QUERY, trace_id="feedfacefeedface")  # forced
                assert (
                    client.trace("feedfacefeedface")["trace"]["trace_id"]
                    == "feedfacefeedface"
                )
                counters = client.trace()["counters"]
        # 3 queries + the finished /trace?id GET; the listing request
        # itself has not recorded yet when it reads the counters.
        assert counters["seen"] == 4
        assert counters["dropped"] >= 1


class TestBatchTracePropagation:
    def test_batch_members_share_the_request_root_trace(self):
        # Distinct queries: a repeated one would hit the result cache
        # and legitimately skip its service.eval span.
        queries = [
            QUERY,
            SLOW_QUERY,
            "SIMPLE (x:Person) ~[:married]~ (y:Person)",
        ]
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                reply = client.request(
                    "POST",
                    "/batch",
                    {"queries": queries},
                    headers={"X-Trace-Id": "beefbeefbeefbeef"},
                )
                assert reply.status == 200
                tree = client.trace("beefbeefbeefbeef")["trace"]
        assert _all_trace_ids(tree) == {"beefbeefbeefbeef"}
        # One service.eval span per batch member, all under the one
        # dispatch of the request's root.
        (dispatch,) = _children(tree, "server.dispatch")
        assert len(_children(dispatch, "service.eval")) == len(queries)
        assert len(_children(dispatch, "server.encode")) == len(queries)


class TestDeadlines:
    def test_blown_deadline_is_504_with_partial_trace(self):
        with serve_background(GraphService(_graph(people=30))) as handle:
            with HttpServiceClient(*handle.address) as client:
                with pytest.raises(HttpServiceError) as info:
                    client.query(
                        SLOW_QUERY,
                        deadline_ms=0.001,
                        trace_id="dead0000dead0000",
                    )
                assert info.value.status == 504
                assert "Deadline" in str(info.value)
                # The partial span tree was recorded (5xx bypasses
                # sampling) and carries the error marker.
                tree = client.trace("dead0000dead0000")["trace"]
                stats = client.stats()
        assert tree["error"] == "HTTP 504"
        assert tree["attributes"]["status"] == 504
        assert stats["timeouts"] == 1
        assert stats["server_errors"] == 1

    def test_deadline_inside_the_witness_loop_is_504_and_frees_the_slot(self):
        # 5^11 walks per seed: the deadline has to fire inside the
        # enumeration. With a single in-flight slot, the follow-up is
        # only answered if the timed-out evaluation gave its slot back.
        service = GraphService(complete_graph(6))
        with serve_background(service, max_in_flight=1) as handle:
            with HttpServiceClient(*handle.address) as client:
                with pytest.raises(HttpServiceError) as info:
                    client.query("SHORTEST (x) ->{11,11} (y)", deadline_ms=50)
                assert info.value.status == 504
                assert len(client.query("TRAIL (x) -> (y)")) == 30
                stats = client.stats()
        assert stats["timeouts"] == 1

    def test_deadline_inside_the_bounded_evaluator_is_504_and_frees_the_slot(self):
        # TRAIL over an unbounded repetition is the Section 5 bounded
        # denotation up to |E|, pruned of repeated edges as it is built:
        # on 17 nodes and 32 edges there are still exponentially many
        # trails (minutes of products when nothing inside them looks at
        # the clock).
        # A deadline that expires inside a cluster's shards is the same
        # 504 and the same timeout: the request ran out of budget, the
        # cluster did not fail.
        graph = transport_network(4, 4)
        for service in (
            GraphService(graph),
            ClusterService(graph, backend="process", num_workers=2),
        ):
            with serve_background(service, max_in_flight=1) as handle:
                with HttpServiceClient(*handle.address) as client:
                    started = time.monotonic()
                    with pytest.raises(HttpServiceError) as info:
                        client.query(
                            "TRAIL (x) -[:link]->{1,} (y)", deadline_ms=500
                        )
                    assert time.monotonic() - started < 1.0
                    assert info.value.status == 504
                    assert len(client.query("TRAIL (x:Hub) -[:link]-> (y)")) > 0
                    stats = client.stats()
                    (timed_out,) = client.insights(sort="errors", limit=1)[
                        "insights"
                    ]
            assert stats["timeouts"] == 1
            assert (timed_out["errors"], timed_out["timeouts"]) == (1, 1)

    def test_generous_deadline_does_not_interfere(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                direct = client.query(QUERY)
                bounded = client.query(QUERY, deadline_ms=30_000)
        assert bounded == direct

    @pytest.mark.parametrize("bad", [0, -5, "fast", True])
    def test_invalid_deadline_is_400(self, bad):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                reply = client.request(
                    "POST", "/query", {"query": QUERY, "deadline_ms": bad}
                )
        assert reply.status == 400
        assert "deadline_ms" in reply.payload["error"]


class TestMetricsEndpoint:
    def _lines(self, text: str) -> dict[str, str]:
        pairs = {}
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, _, value = line.rpartition(" ")
            pairs[name] = value
        return pairs

    def test_single_service_exposition(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(SLOW_QUERY)
                text = client.metrics()
        metrics = self._lines(text)
        # Transport, service, engine and trace-store counters all
        # present in one scrape.
        assert metrics["repro_server_queries"] == "1"
        assert metrics["repro_service_queries"] == "1"
        assert int(metrics["repro_engine_nfa_states_expanded"]) > 0
        assert int(metrics["repro_engine_witness_steps"]) > 0
        assert int(metrics["repro_engine_witnesses"]) > 0
        # SLOW_QUERY reads no register: every per-seed search counts as
        # register-free and interns no file.
        assert int(metrics["repro_engine_dense_fast_lane"]) > 0
        assert metrics["repro_engine_register_files"] == "0"
        assert int(metrics["repro_traces_recorded"]) >= 1
        assert metrics["repro_server_request_latency_seconds_count"] >= "1"
        assert "# TYPE repro_server_request_latency_seconds histogram" in text
        assert "# TYPE repro_service_latency_seconds histogram" in text
        assert 'repro_server_request_latency_seconds_bucket{le="+Inf"}' in text
        assert metrics["repro_service_result_cache_misses"] == "1"

    def test_cluster_exposition_with_worker_labels(self):
        with serve_background(
            ClusterService(_graph(), backend="process", num_workers=2)
        ) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(SLOW_QUERY)
                text = client.metrics()
        metrics = self._lines(text)
        assert metrics["repro_cluster_scatters"] == "2"
        assert int(metrics["repro_engine_nfa_states_expanded"]) > 0
        assert "# TYPE repro_cluster_shard_latency_seconds histogram" in text
        assert 'repro_cluster_worker_latency_seconds_count{worker="' in text

    def test_metrics_counts_grow_monotonically(self):
        with serve_background(GraphService(_graph())) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                first = self._lines(client.metrics())
                client.query(QUERY)
                second = self._lines(client.metrics())
        assert int(second["repro_server_queries"]) > int(
            first["repro_server_queries"]
        )
        assert int(
            second["repro_server_request_latency_seconds_count"]
        ) > int(first["repro_server_request_latency_seconds_count"])


class TestAccessLog:
    def test_off_by_default(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            with serve_background(GraphService(_graph())) as handle:
                with HttpServiceClient(*handle.address) as client:
                    client.query(QUERY)
        assert not caplog.records

    def test_structured_json_lines_when_enabled(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.server.access"):
            with serve_background(
                GraphService(_graph()), log_requests=True
            ) as handle:
                with HttpServiceClient(*handle.address) as client:
                    client.query(QUERY, trace_id="abadcafeabadcafe")
        records = [json.loads(r.getMessage()) for r in caplog.records]
        entry = next(r for r in records if r["path"] == "/query")
        assert entry["method"] == "POST"
        assert entry["status"] == 200
        assert entry["trace_id"] == "abadcafeabadcafe"
        assert entry["latency_ms"] > 0
        assert sorted(entry) == [
            "latency_ms", "method", "path", "status", "trace_id"
        ]
