"""Self-test of the `layers` benchmark (collected by tier-1; no timing
assertions)."""

from __future__ import annotations

import json
import re
from pathlib import Path

import compare
import run
from layersbench import metrics, replay
from layersbench.spans import (
    Recorder,
    Span,
    blocked_percentile,
    percentile,
    self_time_by_op,
    self_times_ns,
)
from layersbench.workloads import WORKLOADS, WRITE, write_cycle

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text()
)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0
    assert percentile(values, 20) == 1.0
    assert percentile([], 50) == 0.0


def test_blocked_percentile_shrugs_off_one_spoilt_block():
    steady = [float(i % 10) for i in range(900)]
    assert blocked_percentile(steady[:299], 90) == percentile(steady[:299], 90)
    spoilt = steady[:100] + [50.0] * 100 + steady[200:]
    assert percentile(spoilt, 90) == 50.0
    assert blocked_percentile(spoilt, 90) == 8.0


def test_self_time_is_span_minus_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("child", 10, 40, 0, 0),
        Span("grandchild", 20, 30, 1, 0),
        Span("child", 50, 70, 0, 0),
        Span("root", 200, 260, -1, 1),
    ]
    assert self_times_ns(spans) == [50, 20, 10, 20, 60]
    by_op = self_time_by_op(spans)
    assert by_op[0] == {"root": 50 / 1e6, "child": 40 / 1e6, "grandchild": 10 / 1e6}
    assert by_op[1] == {"root": 60 / 1e6}


def test_recorder_nests_and_tags_ops():
    recorder = Recorder()
    op = recorder.next_op()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert (outer.parent, inner.parent, outer.op, inner.op) == (-1, 0, op, op)
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns


def test_schedules_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        first = workload.build_schedule(7, "tiny")
        assert first == workload.build_schedule(7, "tiny")
        assert first != workload.build_schedule(8, "tiny")
        reads = [name for name, _ in first if name != WRITE[0]]
        counts = {name: reads.count(name) for name in workload.classes}
        assert len(set(counts.values())) == 1, counts  # equal class weights
    assert write_cycle(0, 7, "tiny") == write_cycle(0, 7, "tiny")
    assert write_cycle(0, 7, "tiny") != write_cycle(1, 7, "tiny")


def test_point_lookup_texts_are_distinct_and_exceed_the_caches():
    texts = [text for _, text in WORKLOADS["point_lookup"].build_schedule(1, "full")]
    assert len(texts) == len(set(texts)) == 5000  # > 4096 results, > 256 plans


def test_benchmark_json_matches_the_code_and_the_caps():
    assert DECLARED == metrics.benchmark_json(WORKLOADS, DECLARED["run_seconds"])
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in DECLARED[key]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])


def test_a_removed_entry_point_resolves_to_none():
    assert replay.resolve("repro.gpc.register_nfa:compile_flat_program") is not None
    assert replay.resolve("repro.gpc.register_nfa:no_such_lane") is None
    assert replay.resolve("repro.no_such_module:anything") is None


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0]
    assert compare.verdict(steady, [100.5, 102.0, 99.5], "lower", 0.10) == "same"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.10) == "worse"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "lower", 0.10) == "better"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.10) == "worse"
    assert compare.verdict([100.0, 140.0, 60.0], [150.0] * 3, "lower", 0.10) == "unresolved"


def test_tiny_run_yields_every_declared_metric(tmp_path):
    untraced = run.run_one("ring_shortest", 1, 4.0, False, "tiny")
    assert set(untraced["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value in untraced["metrics"].values())
    assert untraced["failed"] == 0 and untraced["attempted"] > 0
    assert untraced["samples"]["checked"] > 0

    traced = run.run_one("ring_shortest", 1, 4.0, True, "tiny")
    assert set(traced["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert traced["failed"] == 0, traced["problems"]
    assert traced["metrics"]["gpc.register_nfa.seeds"] == 30  # 10 probes x 3 classes
    assert traced["metrics"]["gpc.engine.eval_ms"] > 0
    assert not traced["notes"]

    # The result files round-trip through compare's loader.
    for result in (untraced, traced):
        name = f"r{result['trace']}.json"
        (tmp_path / name).write_text(json.dumps(result))
    assert set(compare.load(tmp_path)) == {("ring_shortest", 0), ("ring_shortest", 1)}
