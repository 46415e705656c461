"""Regression tests for the service-stats correctness fixes:

- ``evaluate(use_cache=False)`` must count a *bypass*, not a miss, so
  ``hit_rate`` only reflects real cache probes;
- ``LatencyRecorder.summary()`` must derive every figure from one
  once-sorted copy, taken — like every ``record`` — under the lock of
  whoever owns the recorder (records carry none of their own);
- ``summary()`` must report a *windowed* mean: after the bounded
  reservoir wraps, the all-time ``_total/_count`` mean describes a
  different population than the windowed percentiles (regression — the
  two used to be mixed in one payload).
"""

import threading

from repro.graph.generators import social_network
from repro.service import GraphService
from repro.service.stats import CacheStats, LatencyRecorder

QUERY = "TRAIL (x:Person) -[:knows]-> (y:Person)"


class TestCacheBypasses:
    def test_bypass_not_counted_as_miss(self):
        service = GraphService(social_network(num_people=8, seed=2))
        for _ in range(3):
            service.evaluate(QUERY, use_cache=False)
        stats = service.stats.result_cache
        assert stats.bypasses == 3
        assert stats.misses == 0
        assert stats.lookups == 0
        service.close()

    def test_hit_rate_unaffected_by_bypasses(self):
        service = GraphService(social_network(num_people=8, seed=2))
        service.evaluate(QUERY)  # miss
        service.evaluate(QUERY)  # hit
        for _ in range(10):
            service.evaluate(QUERY, use_cache=False)
        stats = service.stats.result_cache
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5  # 10 bypasses must not drag it down
        service.close()

    def test_bypasses_in_as_dict(self):
        stats = CacheStats(hits=2, misses=1, bypasses=4)
        payload = stats.as_dict()
        assert payload["bypasses"] == 4
        assert payload["hit_rate"] == 2 / 3

    def test_service_as_dict_includes_bypasses(self):
        service = GraphService(social_network(num_people=8, seed=2))
        service.evaluate(QUERY, use_cache=False)
        payload = service.stats.as_dict()
        assert payload["result_cache"]["bypasses"] == 1
        service.close()


class TestLatencyRecorder:
    def test_summary_consistent_figures(self):
        recorder = LatencyRecorder()
        for value in (0.5, 0.1, 0.3, 0.2, 0.4):
            recorder.record(value)
        summary = recorder.summary()
        assert summary["count"] == 5
        assert abs(summary["mean_s"] - 0.3) < 1e-12
        assert summary["p50_s"] == 0.3
        assert summary["p90_s"] == 0.5
        assert summary["p99_s"] == 0.5
        assert summary["p50_s"] <= summary["p90_s"] <= summary["p99_s"]

    def test_empty_summary(self):
        summary = LatencyRecorder().summary()
        assert summary == {
            "count": 0,
            "total_s": 0.0,
            "window": 0,
            "mean_s": 0.0,
            "p50_s": 0.0,
            "p90_s": 0.0,
            "p99_s": 0.0,
        }

    def test_wrapped_reservoir_mean_is_windowed(self):
        # One huge outlier, then enough samples to push it out of the
        # bounded window: the summary's mean must describe the same
        # window as the percentiles, not the all-time total.
        recorder = LatencyRecorder(capacity=4)
        recorder.record(1000.0)
        for _ in range(4):
            recorder.record(0.002)
        summary = recorder.summary()
        assert summary["count"] == 5          # all-time, kept
        assert abs(summary["total_s"] - 1000.008) < 1e-9
        assert summary["window"] == 4
        assert abs(summary["mean_s"] - 0.002) < 1e-12  # windowed
        # The one-shot summary is internally consistent: the mean lies
        # within the window's percentile range.
        assert summary["p50_s"] <= summary["mean_s"] <= summary["p99_s"]

    def test_unwrapped_summary_mean_matches_all_time(self):
        recorder = LatencyRecorder(capacity=16)
        for value in (0.1, 0.2, 0.3):
            recorder.record(value)
        summary = recorder.summary()
        assert summary["count"] == summary["window"] == 3
        assert abs(summary["mean_s"] - 0.2) < 1e-12
        assert abs(summary["mean_s"] - recorder.mean) < 1e-12

    def test_percentile_still_matches_summary(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(value / 100.0)
        summary = recorder.summary()
        assert summary["p50_s"] == recorder.percentile(50)
        assert summary["p90_s"] == recorder.percentile(90)
        assert summary["p99_s"] == recorder.percentile(99)

    def test_concurrent_records_keep_summary_sane(self):
        # The recorder is lock-free by design: its owner serialises
        # writers against readers, as ServiceStats.lock does.
        recorder = LatencyRecorder(capacity=128)
        owner = threading.Lock()
        stop = threading.Event()

        def writer():
            value = 0
            while not stop.is_set():
                value += 1
                with owner:
                    recorder.record((value % 100) / 1000.0)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                with owner:
                    summary = recorder.summary()
                assert summary["count"] >= 0
                assert 0.0 <= summary["p50_s"] <= summary["p99_s"] <= 0.1
                # Writers keep going between two reads: only monotone.
                assert recorder.count >= summary["count"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert recorder.summary()["count"] == recorder.count


class TestCacheStatsRoundTrip:
    """``as_dict`` must cover every counter field (its annotation says
    ``int | float`` because ``hit_rate`` rides along) — a new dataclass
    field that never reaches the payload is a silent metrics gap."""

    def test_every_counter_field_round_trips(self):
        from dataclasses import fields

        distinct = {
            f.name: i for i, f in enumerate(fields(CacheStats), start=1)
        }
        stats = CacheStats(**distinct)
        payload = stats.as_dict()
        for name, value in distinct.items():
            assert payload[name] == value, f"{name} missing or mangled"

    def test_payload_has_no_extra_keys_beyond_hit_rate(self):
        from dataclasses import fields

        payload = CacheStats().as_dict()
        assert set(payload) == {f.name for f in fields(CacheStats)} | {
            "hit_rate"
        }

    def test_hit_rate_is_float(self):
        payload = CacheStats(hits=1, misses=3).as_dict()
        assert payload["hit_rate"] == 0.25
        assert isinstance(payload["hit_rate"], float)
