"""End-to-end tests for ``GET /insights``: fingerprint-aggregated
workload profiles over both service facades, the client accessor, the
``/metrics`` fold, the ``/trace`` cross-link, and the explain
estimated-vs-actual table over HTTP."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterService
from repro.graph.generators import social_network
from repro.obs import query_fingerprint
from repro.server import HttpServiceClient, HttpServiceError, serve_background
from repro.service import GraphService

QUERY = "TRAIL (x:Person) -[:knows]-> (y:Person)"
OTHER = "SIMPLE (x:Person) <-[:knows]- (y:Person)"
SLOW = "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"


def _graph(seed: int = 11, people: int = 12):
    return social_network(num_people=people, friend_degree=2, seed=seed)


def _serve_graph():
    return serve_background(GraphService(_graph()))


def _serve_cluster():
    return serve_background(
        ClusterService(_graph(), backend="serial", num_workers=2)
    )


@pytest.mark.parametrize("serve", [_serve_graph, _serve_cluster])
class TestInsightsEndpoint:
    def test_insights_aggregate_per_fingerprint(self, serve):
        with serve() as handle:
            with HttpServiceClient(*handle.address) as client:
                for _ in range(3):
                    client.query(QUERY)
                client.query(OTHER)
                payload = client.insights()
        assert payload["sort"] == "total_time"
        counters = payload["counters"]
        assert counters["enabled"] is True
        assert counters["fingerprints"] == 2
        assert counters["records"] == 4
        by_query = {e["query"]: e for e in payload["insights"]}
        entry = by_query[QUERY]
        assert entry["fingerprint"] == query_fingerprint(QUERY)[0]
        assert entry["calls"] == 3
        # First call misses, the repeats hit the result cache.
        assert entry["cache"]["misses"] == 1
        assert entry["cache"]["hits"] == 2
        assert entry["latency"]["count"] == 3
        assert entry["latency_histogram"]["count"] == 3
        assert entry["answers_total"] > 0
        # The uncached execution carried planner estimates.
        assert entry["plan"]["samples"] == 1
        assert entry["plan"]["misestimate_factor"] >= 1.0
        assert "engine" in entry

    def test_execution_failure_is_a_counted_call(self, serve):
        # One failure-accounting rule for both facades: a query that
        # fails in the execute step (here: a blown deadline) is a
        # served query — counted, and recorded as an erroring call.
        with serve() as handle:
            with HttpServiceClient(*handle.address) as client:
                with pytest.raises(HttpServiceError):
                    client.query(SLOW, deadline_ms=0.001)
                (entry,) = client.insights()["insights"]
                stats = client.stats()
        assert entry["calls"] == 1
        assert entry["errors"] == 1
        assert stats["service"]["queries"] == 1

    def test_sort_and_limit_parameters(self, serve):
        with serve() as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                client.query(OTHER)
                client.query(OTHER)
                by_calls = client.insights(sort="calls", limit=1)
        assert by_calls["limit"] == 1
        assert len(by_calls["insights"]) == 1
        assert by_calls["insights"][0]["query"] == OTHER

    def test_bad_parameters_are_400(self, serve):
        with serve() as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                with pytest.raises(HttpServiceError) as bad_sort:
                    client.insights(sort="nope")
                assert bad_sort.value.status == 400
                reply = client.request("GET", "/insights?limit=banana")
                assert reply.status == 400

    def test_metrics_fold_in_labeled_series(self, serve):
        with serve() as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                client.query(QUERY)
                body = client.metrics()
        fingerprint = query_fingerprint(QUERY)[0]
        assert (
            f'repro_insights_calls{{fingerprint="{fingerprint}"}} 2' in body
        )
        assert "insights_records 2" in body
        assert "insights_enabled 1" in body

    def test_metrics_render_is_byte_deterministic(self, serve):
        with serve() as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                client.query(OTHER)
                first = client.metrics()
                second = client.metrics()
        # Serving /metrics itself bumps the request counters, but no
        # query ran between the renders, so the insights series must
        # come out byte-identical — the guard against map-ordering
        # drift in the new section.
        def insights_lines(body):
            return [
                line for line in body.splitlines() if "insights" in line
            ]

        first_lines = insights_lines(first)
        assert first_lines  # the section is present at all
        assert "\n".join(first_lines).encode("utf-8") == "\n".join(
            insights_lines(second)
        ).encode("utf-8")


class TestTraceCrossLink:
    def test_forced_trace_carries_the_fingerprint(self):
        with _serve_graph() as handle:
            with HttpServiceClient(*handle.address) as client:
                client.request(
                    "POST",
                    "/query",
                    {"query": QUERY},
                    headers={"X-Trace-Id": "0123456789abcdef"},
                )
                tree = client.trace("0123456789abcdef")["trace"]
                insights = client.insights()
        assert tree["fingerprint"] == query_fingerprint(QUERY)[0]
        (entry,) = insights["insights"]
        assert "0123456789abcdef" in entry["recent_trace_ids"]

    def test_insight_trace_ids_resolve_via_trace_endpoint(self):
        with _serve_graph() as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                (entry,) = client.insights()["insights"]
                trace_id = entry["recent_trace_ids"][-1]
                tree = client.trace(trace_id)["trace"]
        assert tree["trace_id"] == trace_id
        assert tree["fingerprint"] == entry["fingerprint"]


class TestExplainAnalyzeTable:
    @pytest.mark.parametrize("serve", [_serve_graph, _serve_cluster])
    def test_estimated_vs_actual_section_over_http(self, serve):
        with serve() as handle:
            with HttpServiceClient(*handle.address) as client:
                text = client.explain(QUERY, analyze=True)
        assert "observed execution:" in text
        assert "estimated vs actual:" in text
        assert "answers: est " in text


class TestDisabledInsights:
    def test_disabled_registry_serves_empty_insights(self):
        with serve_background(
            GraphService(_graph(), insights=False)
        ) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.query(QUERY)
                payload = client.insights()
                body = client.metrics()
        assert payload["insights"] == []
        assert payload["counters"]["enabled"] is False
        assert payload["counters"]["records"] == 0
        assert "repro_insights_calls" not in body

    def test_batch_path_feeds_insights(self):
        with serve_background(
            ClusterService(_graph(), backend="serial", num_workers=2)
        ) as handle:
            with HttpServiceClient(*handle.address) as client:
                client.batch([QUERY, OTHER, QUERY])
                payload = client.insights(sort="calls")
        by_query = {e["query"]: e for e in payload["insights"]}
        assert by_query[QUERY]["calls"] == 2
        assert by_query[OTHER]["calls"] == 1
