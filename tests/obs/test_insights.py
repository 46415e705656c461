"""Unit tests for the fingerprint-aggregated insights registry."""

import threading

import pytest

from repro.errors import DeadlineExceededError
from repro.obs import (
    EvalCounters,
    InsightsRegistry,
    Observation,
    query_fingerprint,
)
from repro.obs.insights import TRACE_ID_CAPACITY, PlanQuality, canonical_query
from repro.gpc.parser import parse_query
from repro.gpc.planner import JoinEstimate, PlanEstimates

Q = "TRAIL (x:A) -[:a]-> (y)"
Q_OTHER = "SIMPLE (u:B) -[:b]-> (v)"


class TestFingerprinting:
    def test_whitespace_variants_share_a_fingerprint(self):
        assert query_fingerprint(Q) == query_fingerprint(
            "TRAIL   (x:A)-[:a]->(y)"
        )

    def test_constant_variants_share_a_fingerprint(self):
        with_int = "TRAIL (x:A) -[:a]-> (y) << x.k = 1 >>"
        with_str = "TRAIL (x:A) -[:a]-> (y) << x.k = 'zzz' >>"
        with_bool = "TRAIL (x:A) -[:a]-> (y) << x.k = TRUE >>"
        assert (
            query_fingerprint(with_int)
            == query_fingerprint(with_str)
            == query_fingerprint(with_bool)
        )
        assert "?" in query_fingerprint(with_int)[1]

    def test_different_shapes_get_different_fingerprints(self):
        assert query_fingerprint(Q)[0] != query_fingerprint(Q_OTHER)[0]

    def test_string_and_ast_inputs_agree(self):
        assert query_fingerprint(Q) == query_fingerprint(parse_query(Q))

    def test_canonical_text_reparses_to_itself(self):
        canonical = canonical_query("TRAIL (x:A) -[:a]-> (y) << x.k = 7 >>")
        assert canonical_query(canonical) == canonical

    def test_property_equals_property_is_preserved(self):
        text = "TRAIL (x:A) -[:a]-> (y:A) << x.k = y.k >>"
        assert "x.k = y.k" in canonical_query(text)


def _estimates(cardinality, *joins):
    return PlanEstimates(cardinality=cardinality, joins=tuple(joins))


class TestRegistryRecording:
    def test_record_aggregates_per_fingerprint(self):
        registry = InsightsRegistry()
        for _ in range(3):
            registry.record(Observation(Q, latency_s=0.01, answers=2, cache="miss"))
        registry.record(Observation(Q, latency_s=0.02, answers=2, cache="hit"))
        (entry,) = registry.top()
        assert entry["calls"] == 4
        assert entry["answers_total"] == 8
        assert entry["cache"] == {
            "hits": 1,
            "restamps": 0,
            "misses": 3,
            "invalidations": 0,
            "bypasses": 0,
            "refilters": 0,
            "extends": 0,
        }
        assert entry["total_time_s"] == pytest.approx(0.05)
        assert entry["latency"]["count"] == 4

    def test_restamp_and_invalidation_accounting(self):
        registry = InsightsRegistry()
        registry.record(Observation(Q, latency_s=0.0, answers=1, cache="restamp"))
        registry.record(Observation(Q, latency_s=0.0, cache="invalidated"))
        registry.record(Observation(Q, latency_s=0.0, cache="bypass"))
        registry.record(Observation(Q, latency_s=0.0, answers=1, cache="refilter"))
        registry.record(Observation(Q, latency_s=0.0, answers=1, cache="extend"))
        (entry,) = registry.top()
        cache = entry["cache"]
        assert cache["hits"] == 3 and cache["restamps"] == 1
        assert cache["refilters"] == 1 and cache["extends"] == 1
        assert cache["misses"] == 1 and cache["invalidations"] == 1
        assert cache["bypasses"] == 1

    def test_errors_and_timeouts(self):
        registry = InsightsRegistry()
        registry.record(Observation(Q, latency_s=0.0, error=ValueError("boom")))
        registry.record(Observation(Q, latency_s=0.0, error=DeadlineExceededError("late")))
        (entry,) = registry.top()
        assert entry["errors"] == 2
        assert entry["timeouts"] == 1

    def test_counters_merge(self):
        registry = InsightsRegistry()
        counters = EvalCounters()
        counters.join_build_rows = 5
        registry.record(Observation(Q, latency_s=0.0, answers=0, counters=counters))
        registry.record(Observation(Q, latency_s=0.0, answers=0, counters=counters))
        (entry,) = registry.top()
        assert entry["engine"]["join_build_rows"] == 10

    def test_record_returns_fingerprint(self):
        registry = InsightsRegistry()
        fingerprint = registry.record(Observation(Q, latency_s=0.0))
        assert fingerprint == query_fingerprint(Q)[0]

    def test_trace_ids_are_bounded_and_deduped(self):
        registry = InsightsRegistry()
        ids = [f"t{n}" for n in range(TRACE_ID_CAPACITY + 2)]
        for trace_id in [ids[0], *ids]:  # the repeat is deduped
            registry.record(Observation(Q, latency_s=0.0, trace_id=trace_id))
        (entry,) = registry.top()
        assert entry["recent_trace_ids"] == ids[-TRACE_ID_CAPACITY:]

    def test_disabled_registry_is_a_noop(self):
        registry = InsightsRegistry(enabled=False)
        assert registry.record(Observation(Q, latency_s=0.0)) is None
        assert len(registry) == 0
        assert registry.counters()["records"] == 0
        assert registry.top() == []


class TestPlanQuality:
    def test_perfect_estimate_scores_one(self):
        quality = PlanQuality()
        quality.observe(_estimates(4.0), 4, None)
        assert quality.misestimate_factor == pytest.approx(1.0)
        assert quality.worst_factor == pytest.approx(1.0)

    def test_symmetric_over_and_under(self):
        over = PlanQuality()
        over.observe(_estimates(40.0), 4, None)
        under = PlanQuality()
        under.observe(_estimates(4.0), 40, None)
        assert over.misestimate_factor == pytest.approx(10.0)
        assert under.misestimate_factor == pytest.approx(10.0)

    def test_zero_observed_answers_do_not_divide_by_zero(self):
        quality = PlanQuality()
        quality.observe(_estimates(0.0), 0, None)
        assert quality.misestimate_factor == pytest.approx(1.0)

    def test_join_rows_aggregate_from_counters(self):
        quality = PlanQuality()
        counters = EvalCounters()
        counters.join_build_rows = 3
        counters.join_probe_rows = 9
        estimates = _estimates(
            10.0, JoinEstimate(shared=("y",), left=4.0, right=8.0)
        )
        quality.observe(estimates, 10, counters)
        record = quality.as_dict()
        assert record["estimated_join_build_rows"] == pytest.approx(4.0)
        assert record["estimated_join_probe_rows"] == pytest.approx(8.0)
        assert record["observed_join_build_rows"] == 3
        assert record["observed_join_probe_rows"] == 9

    def test_worst_factor_tracks_the_worst_call(self):
        quality = PlanQuality()
        quality.observe(_estimates(4.0), 4, None)
        quality.observe(_estimates(100.0), 4, None)
        quality.observe(_estimates(4.0), 4, None)
        assert quality.worst_factor == pytest.approx(25.0)

    def test_registry_threads_estimates_into_plan_quality(self):
        registry = InsightsRegistry()
        registry.record(Observation(
            Q, latency_s=0.0, answers=2, estimates=_estimates(8.0)
        ))
        (entry,) = registry.top()
        assert entry["plan"]["samples"] == 1
        assert entry["plan"]["misestimate_factor"] == pytest.approx(4.0)

    def test_cache_hits_do_not_count_as_plan_samples(self):
        registry = InsightsRegistry()
        registry.record(Observation(Q, latency_s=0.0, answers=2, cache="hit"))
        (entry,) = registry.top()
        assert entry["plan"]["samples"] == 0


class TestRegistryViews:
    def test_top_sorts(self):
        registry = InsightsRegistry()
        registry.record(Observation(Q, latency_s=1.0, answers=1))
        registry.record(Observation(Q_OTHER, latency_s=0.1, answers=1))
        registry.record(Observation(Q_OTHER, latency_s=0.1, answers=1))
        registry.record(Observation(
            Q_OTHER, latency_s=0.1, answers=1, estimates=_estimates(100.0)
        ))
        by_time = registry.top(sort="total_time")
        assert by_time[0]["query"] == canonical_query(Q)
        by_calls = registry.top(sort="calls")
        assert by_calls[0]["query"] == canonical_query(Q_OTHER)
        by_miss = registry.top(sort="misestimate")
        assert by_miss[0]["query"] == canonical_query(Q_OTHER)

    def test_top_sort_errors(self):
        registry = InsightsRegistry()
        registry.record(Observation(Q, latency_s=0.0, error=ValueError("boom")))
        registry.record(Observation(Q_OTHER, latency_s=1.0, answers=1))
        assert registry.top(sort="errors")[0]["query"] == canonical_query(Q)

    def test_top_rejects_bad_arguments(self):
        registry = InsightsRegistry()
        with pytest.raises(ValueError):
            registry.top(sort="nope")
        with pytest.raises(ValueError):
            registry.top(limit=0)

    def test_top_respects_limit(self):
        registry = InsightsRegistry()
        for index in range(5):
            registry.record(Observation(
                f"TRAIL (x) -[:a]->{{{index + 1}}} (y)", latency_s=0.0
            ))
        assert len(registry.top(limit=2)) == 2

    def test_labeled_series_is_flat_numeric_and_bounded(self):
        registry = InsightsRegistry()
        registry.record(Observation(Q, latency_s=0.5, answers=1))
        registry.record(Observation(Q_OTHER, latency_s=0.1, answers=1))
        series = registry.labeled_series(limit=1)
        assert list(series) == [query_fingerprint(Q)[0]]
        for value in next(iter(series.values())).values():
            assert isinstance(value, (int, float))

    def test_get_by_fingerprint(self):
        registry = InsightsRegistry()
        fingerprint = registry.record(Observation(Q, latency_s=0.0))
        assert registry.get(fingerprint).calls == 1
        assert registry.get("ffffffffffffffff") is None


class TestRegistryBounds:
    def test_lru_eviction_past_capacity(self):
        registry = InsightsRegistry(capacity=2)
        queries = [f"TRAIL (x) -[:a]->{{{n}}} (y)" for n in (1, 2, 3)]
        first, second, third = (
            registry.record(Observation(query, latency_s=0.0)) for query in queries
        )
        # Recording the third evicted the first (capacity 2, LRU).
        assert registry.get(first) is None
        assert registry.counters()["evictions"] == 1
        # Re-recording the first re-creates it, evicting the second —
        # now the least recently updated survivor.
        registry.record(Observation(queries[0], latency_s=0.0))
        assert registry.get(first) is not None
        assert registry.get(second) is None
        assert registry.get(third) is not None
        assert registry.counters()["evictions"] == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            InsightsRegistry(capacity=0)

    def test_clear(self):
        registry = InsightsRegistry()
        registry.record(Observation(Q, latency_s=0.0))
        registry.clear()
        assert len(registry) == 0
        assert registry.counters()["records"] == 0
        assert registry.enabled

    def test_concurrent_recording_is_consistent(self):
        registry = InsightsRegistry()
        queries = [Q, Q_OTHER]

        def worker():
            for _ in range(200):
                for query in queries:
                    registry.record(Observation(query, latency_s=0.001, answers=1))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counters()["records"] == 4 * 200 * 2
        total_calls = sum(entry["calls"] for entry in registry.top())
        assert total_calls == 4 * 200 * 2
