"""Unit tests for the Prometheus text-exposition rendering and the
fixed-bucket latency histogram that feeds it."""

from __future__ import annotations

from repro.obs.metrics import (
    histogram_lines,
    labeled_summary_lines,
    render_metrics,
    sanitize,
    tree_lines,
)
from repro.service.stats import LATENCY_BUCKETS_S, LatencyRecorder


class TestSanitize:
    def test_invalid_chars_become_underscores(self):
        assert sanitize("shard-latency.p99") == "shard_latency_p99"

    def test_leading_digit_is_prefixed(self):
        assert sanitize("9lives") == "_9lives"


class TestMappingLines:
    def test_flattens_nested_mappings_sorted(self):
        lines = tree_lines(
            "repro_service",
            {"queries": 3, "result_cache": {"hits": 2, "misses": 1}},
        )
        assert lines == [
            "repro_service_queries 3",
            "repro_service_result_cache_hits 2",
            "repro_service_result_cache_misses 1",
        ]

    def test_drops_non_numeric_leaves(self):
        lines = tree_lines(
            "x",
            {"latency": {"p99": 1.0}, "name": "gpc", "count": 2, "on": True},
        )
        assert lines == ["x_count 2", "x_latency_p99 1.0", "x_on 1"]

    def test_floats_render_exactly(self):
        assert tree_lines("x", {"rate": 0.5}) == ["x_rate 0.5"]


class TestHistogramLines:
    def test_cumulative_buckets_with_inf_sum_count(self):
        lines = histogram_lines(
            "lat",
            {"buckets": [(0.1, 2), (0.5, 3), (1.0, 0)], "sum": 1.25, "count": 6},
        )
        assert lines[0] == "# TYPE lat histogram"
        assert 'lat_bucket{le="0.1"} 2' in lines
        assert 'lat_bucket{le="0.5"} 5' in lines  # cumulative
        assert 'lat_bucket{le="1.0"} 5' in lines
        assert 'lat_bucket{le="+Inf"} 6' in lines  # one overflow sample
        assert "lat_sum 1.25" in lines
        assert lines[-1] == "lat_count 6"


class TestLabeledSummaryLines:
    def test_one_series_per_key(self):
        lines = labeled_summary_lines(
            "work",
            "worker",
            {"pid-2": {"count": 4}, "pid-1": {"count": 7}},
        )
        assert lines == [
            'work_count{worker="pid-1"} 7',
            'work_count{worker="pid-2"} 4',
        ]

    def test_label_values_escaped(self):
        lines = labeled_summary_lines(
            "work", "worker", {'a"b\\c': {"count": 1}}
        )
        assert lines == ['work_count{worker="a\\"b\\\\c"} 1']


class TestRenderMetrics:
    def test_sections_concatenate_with_trailing_newline(self):
        text = render_metrics({"a": {"x": 1}, "b": {"y": 2}})
        assert text == "a_x 1\nb_y 2\n"


class TestByteDeterminism:
    """The exposition must be byte-stable against map-ordering drift:
    equal stats must render to identical bytes however the source
    dicts' insertion orders came about."""

    def test_mapping_lines_ignore_insertion_order(self):
        forward = {"b": 1, "a": 2, "nested": {"y": 3, "x": 4}}
        backward = {"nested": {"x": 4, "y": 3}, "a": 2, "b": 1}
        assert tree_lines("m", forward) == tree_lines("m", backward)

    def test_labeled_series_ignore_insertion_order(self):
        forward = {"k1": {"b": 1, "a": 2}, "k2": {"a": 3, "b": 4}}
        backward = {"k2": {"b": 4, "a": 3}, "k1": {"a": 2, "b": 1}}
        assert labeled_summary_lines(
            "s", "key", forward
        ) == labeled_summary_lines("s", "key", backward)

    def test_two_full_renders_are_byte_identical(self):
        def build(shuffled: bool) -> bytes:
            fields = [("x", 1), ("y", 2.5), ("flags", {"on": True})]
            series = [("fp1", {"calls": 3}), ("fp2", {"calls": 9})]
            if shuffled:
                fields = list(reversed(fields))
                series = list(reversed(series))
            lines = tree_lines("repro_test", dict(fields))
            lines.extend(
                labeled_summary_lines(
                    "repro_test_insights", "fingerprint", dict(series)
                )
            )
            lines.extend(
                histogram_lines(
                    "repro_test_latency",
                    {"buckets": [(0.1, 1), (0.5, 2)], "sum": 0.7, "count": 3},
                )
            )
            return ("\n".join(lines) + "\n").encode("utf-8")

        assert build(shuffled=False) == build(shuffled=True)

    def test_render_metrics_ignores_section_content_order(self):
        first = render_metrics({"a": {"y": 2, "x": 1}, "b": {"z": 3}})
        second = render_metrics({"a": {"x": 1, "y": 2}, "b": {"z": 3}})
        assert first.encode("utf-8") == second.encode("utf-8")

    def test_label_special_characters_are_escaped(self):
        tricky = 'quote:" backslash:\\ newline:\n'
        (line,) = labeled_summary_lines(
            "work", "worker", {tricky: {"count": 1}}
        )
        assert line == (
            'work_count{worker="quote:\\" backslash:\\\\ newline:\\n"} 1'
        )
        assert "\n" not in line  # a raw newline would split the series


class TestLatencyRecorderHistogram:
    def test_empty_histogram_shape(self):
        histogram = LatencyRecorder().histogram()
        assert histogram["count"] == 0
        assert histogram["sum"] == 0.0
        assert [bound for bound, _ in histogram["buckets"]] == list(
            LATENCY_BUCKETS_S
        )
        assert all(count == 0 for _, count in histogram["buckets"])

    def test_samples_land_in_the_right_buckets(self):
        recorder = LatencyRecorder()
        recorder.record(0.0001)  # below the first bound -> first bucket
        recorder.record(0.003)  # (0.0025, 0.005]
        recorder.record(0.003)
        recorder.record(99.0)  # beyond the last bound -> overflow
        histogram = recorder.histogram()
        counts = dict(histogram["buckets"])
        assert counts[0.0005] == 1
        assert counts[0.005] == 2
        assert histogram["count"] == 4  # overflow sample still counted
        assert sum(count for _, count in histogram["buckets"]) == 3
        assert abs(histogram["sum"] - 99.0061) < 1e-9

    def test_histogram_is_all_time_despite_bounded_reservoir(self):
        recorder = LatencyRecorder(capacity=4)
        for _ in range(20):
            recorder.record(0.01)
        histogram = recorder.histogram()
        assert histogram["count"] == 20
        assert dict(histogram["buckets"])[0.01] == 20
