"""Unit tests for the tracing substrate: span trees, contextvar
propagation, carrier-based re-parenting across executor boundaries,
trace-store retention policy, deadlines, and engine work counters.
"""

from __future__ import annotations

import contextvars
import threading
import time

import pytest

from repro.errors import DeadlineExceededError
from repro.obs import (
    EvalCounters,
    NULL_SPAN,
    Span,
    TraceStore,
    Tracer,
    active_counters,
    check_deadline,
    current_carrier,
    current_span,
    deadline_scope,
    remaining,
    remote_span,
    span,
    use_counters,
)


class TestSpanTree:
    def test_trace_builds_nested_tree(self):
        tracer = Tracer(TraceStore())
        with tracer.trace("request", path="/query") as root:
            with span("outer") as outer:
                outer.set_attr("k", 1)
                with span("inner"):
                    pass
            with span("sibling"):
                pass
        tree = tracer.store.recent()[0]
        assert tree["name"] == "request"
        assert tree["attributes"]["path"] == "/query"
        names = [child["name"] for child in tree["children"]]
        assert names == ["outer", "sibling"]
        outer_dict = tree["children"][0]
        assert outer_dict["attributes"] == {"k": 1}
        assert [c["name"] for c in outer_dict["children"]] == ["inner"]
        # Every node shares the root's trace id and parents correctly.
        assert outer_dict["trace_id"] == root.trace_id
        assert outer_dict["parent_id"] == tree["span_id"]

    def test_span_without_ambient_root_is_noop(self):
        with span("orphan") as s:
            assert s is NULL_SPAN
            assert not s
        assert current_span() is None

    def test_disabled_tracer_yields_null_span(self):
        tracer = Tracer(TraceStore(), enabled=False)
        with tracer.trace("request") as root:
            assert root is NULL_SPAN
            with span("child") as child:
                assert child is NULL_SPAN
        assert tracer.store.recent() == []
        assert tracer.store.counters()["seen"] == 0

    def test_children_durations_fit_inside_root(self):
        tracer = Tracer(TraceStore())
        with tracer.trace("request"):
            with span("a"):
                time.sleep(0.002)
            with span("b"):
                time.sleep(0.002)
        tree = tracer.store.recent()[0]
        child_sum = sum(c["duration_s"] for c in tree["children"])
        assert 0 < child_sum <= tree["duration_s"]

    def test_error_recorded_and_propagated(self):
        tracer = Tracer(TraceStore())
        with pytest.raises(ValueError):
            with tracer.trace("request"):
                with span("work"):
                    raise ValueError("boom")
        tree = tracer.store.recent()[0]
        assert tree["error"]  # root saw the exception on exit
        assert "boom" in tree["children"][0]["error"]


class TestThreadPropagation:
    def test_copied_context_parents_thread_spans_under_root(self):
        tracer = Tracer(TraceStore())
        with tracer.trace("request") as root:
            ctx = contextvars.copy_context()

            def work():
                with span("thread_work") as s:
                    return s.trace_id

            holder = {}
            thread = threading.Thread(
                target=lambda: holder.update(tid=ctx.run(work))
            )
            thread.start()
            thread.join()
        assert holder["tid"] == root.trace_id
        tree = tracer.store.recent()[0]
        assert [c["name"] for c in tree["children"]] == ["thread_work"]


class TestCarrierReparenting:
    def test_carrier_roundtrip_and_adopt(self):
        tracer = Tracer(TraceStore())
        with tracer.trace("request") as root:
            carrier = current_carrier()
            assert carrier == (root.trace_id, root.span_id)
            # "In the worker": rebuild the context from the carrier.
            with remote_span("shard", carrier, worker="w0") as shard:
                with span("engine_bit"):
                    pass
            shipped = shard.to_dict()
            # "Back home": adopt under a different parent.
            with span("gather") as gather:
                gather.adopt(shipped)
        tree = tracer.store.recent()[0]
        gather_dict = tree["children"][0]
        shard_dict = gather_dict["children"][0]
        assert shard_dict["name"] == "shard"
        assert shard_dict["attributes"]["worker"] == "w0"
        assert shard_dict["trace_id"] == root.trace_id
        assert shard_dict["parent_id"] == gather_dict["span_id"]
        assert [c["name"] for c in shard_dict["children"]] == ["engine_bit"]

    def test_none_carrier_is_noop(self):
        with remote_span("shard", None) as shard:
            assert shard is NULL_SPAN
        assert shard.to_dict() is None

    def test_adopt_none_is_noop(self):
        root = Span("root", "t" * 16, None)
        root.adopt(None)
        root.end()
        assert root.to_dict()["children"] == []


class TestTraceStore:
    def _tree(self, name="request", *, duration=0.0, error=None):
        root = Span(name, "t" * 16, None)
        root.end()
        root._end = root._start + duration
        if error:
            root.set_error(error)
        return root

    def test_head_sampling_is_deterministic(self):
        store = TraceStore(capacity=16, sample_every=3)
        kept = [
            store.record(self._tree()) is not None for _ in range(9)
        ]
        assert kept == [True, False, False] * 3
        counters = store.counters()
        assert counters["seen"] == 9
        assert counters["recorded"] == 3
        assert counters["dropped"] == 6

    def test_forced_error_slow_bypass_sampling(self):
        store = TraceStore(capacity=16, sample_every=1000, slow_threshold_s=0.1)
        store.record(self._tree())  # sampled (first)
        assert store.record(self._tree(), forced=True) is not None
        assert store.record(self._tree(error="boom")) is not None
        assert store.record(self._tree(duration=0.2)) is not None
        assert store.record(self._tree()) is None  # sampled out
        counters = store.counters()
        assert counters["recorded"] == 4
        assert counters["errors"] == 1
        assert counters["slow"] == 1
        assert len(store.slow()) == 1

    def test_ring_buffer_bounds_retention(self):
        store = TraceStore(capacity=4)
        for _ in range(10):
            store.record(self._tree())
        assert len(store.recent()) == 4
        assert store.counters()["retained"] == 4

    def test_find_by_trace_id(self):
        store = TraceStore()
        root = Span("request", "cafe" * 4, None)
        root.end()
        store.record(root)
        assert store.find("cafe" * 4)["name"] == "request"
        assert store.find("missing") is None

    def test_recent_is_most_recent_first(self):
        store = TraceStore()
        for name in ("a", "b", "c"):
            store.record(self._tree(name))
        assert [t["name"] for t in store.recent()] == ["c", "b", "a"]
        assert [t["name"] for t in store.recent(2)] == ["c", "b"]


class TestTraceStoreIndex:
    """The trace_id → tree index behind O(1) ``find``."""

    def _root(self, trace_id, *, duration=0.0, attrs=None):
        root = Span("request", trace_id, None, attrs)
        root.end()
        root._end = root._start + duration
        return root

    def test_full_ring_still_resolves_a_retained_slow_trace(self):
        # The regression: a slow trace older than the whole recent ring
        # must stay findable via the slow log, and the index must agree
        # with the rings rather than dangling into evicted trees.
        store = TraceStore(capacity=4, slow_capacity=8, slow_threshold_s=0.1)
        slow_id = "feed" * 4
        store.record(self._root(slow_id, duration=0.5))
        for index in range(20):  # cycle the recent ring many times over
            store.record(self._root(f"{index:016d}"))
        assert store.find(slow_id) is not None
        assert store.find(slow_id)["trace_id"] == slow_id
        # Evicted recent-only traces are gone from the index too.
        assert store.find(f"{0:016d}") is None
        assert store.find(f"{19:016d}") is not None

    def test_find_matches_linear_scan_under_churn(self):
        store = TraceStore(capacity=3, slow_capacity=2, slow_threshold_s=0.1)
        ids = []
        for index in range(12):
            trace_id = f"{index:016x}"
            ids.append(trace_id)
            store.record(
                self._root(
                    trace_id, duration=0.5 if index % 3 == 0 else 0.0
                )
            )
        retained = {t["trace_id"] for t in store.recent()} | {
            t["trace_id"] for t in store.slow()
        }
        for trace_id in ids:
            found = store.find(trace_id)
            if trace_id in retained:
                assert found is not None and found["trace_id"] == trace_id
            else:
                assert found is None

    def test_duplicate_trace_ids_resolve_newest(self):
        store = TraceStore(capacity=4)
        shared = "abcd" * 4
        first = self._root(shared)
        second = self._root(shared)
        store.record(first)
        store.record(second)
        assert store.find(shared) is store._recent[-1]

    def test_slow_eviction_keeps_recent_occurrence_indexed(self):
        # A slow tree lives in both rings; evicting it from one ring
        # must not unindex the copy still held by the other.
        store = TraceStore(capacity=16, slow_capacity=1, slow_threshold_s=0.1)
        first_slow = "aaaa" * 4
        store.record(self._root(first_slow, duration=0.5))
        store.record(self._root("bbbb" * 4, duration=0.5))  # evicts from slow
        assert [t["trace_id"] for t in store.slow()] == ["bbbb" * 4]
        assert store.find(first_slow) is not None  # still in recent

    def test_clear_resets_the_index(self):
        store = TraceStore()
        store.record(self._root("cafe" * 4))
        store.clear()
        assert store.find("cafe" * 4) is None
        assert store._index == {}

    def test_fingerprint_attribute_lifted_to_tree_top(self):
        store = TraceStore()
        tree = store.record(
            self._root("dead" * 4, attrs={"fingerprint": "fp123"})
        )
        assert tree["fingerprint"] == "fp123"
        assert store.find("dead" * 4)["fingerprint"] == "fp123"

    def test_fingerprint_found_on_descendant_spans(self):
        root = Span("request", "beef" * 4, None)
        child = root.child("service.eval")
        child.set_attr("fingerprint", "fp456")
        child.end()
        root.end()
        store = TraceStore()
        tree = store.record(root)
        assert tree["fingerprint"] == "fp456"


class TestDeadline:
    def test_no_deadline_by_default(self):
        assert remaining() is None
        check_deadline()  # must not raise

    def test_deadline_scope_and_check(self):
        with deadline_scope(30.0):
            left = remaining()
            assert 29.0 < left <= 30.0
            check_deadline()
        assert remaining() is None

    def test_expired_deadline_raises(self):
        with deadline_scope(0.001):
            time.sleep(0.005)
            with pytest.raises(DeadlineExceededError):
                check_deadline()

    def test_nested_scopes_take_the_minimum(self):
        with deadline_scope(30.0):
            with deadline_scope(60.0):  # cannot extend the outer budget
                assert remaining() <= 30.0
            with deadline_scope(0.5):
                assert remaining() <= 0.5
            assert 29.0 < remaining() <= 30.0

    def test_none_scope_is_noop(self):
        with deadline_scope(None):
            assert remaining() is None


class TestEvalCounters:
    def test_merge_from_struct_and_dict(self):
        total = EvalCounters()
        total.merge(EvalCounters(nfa_states_expanded=3, deepening_rounds=1))
        total.merge({"nfa_states_expanded": 2, "join_probe_rows": 7})
        assert total.nfa_states_expanded == 5
        assert total.deepening_rounds == 1
        assert total.join_probe_rows == 7
        assert total.total() == 13

    def test_merge_none_and_unknown_keys(self):
        total = EvalCounters()
        total.merge(None)
        total.merge({"not_a_counter": 99})
        assert total.total() == 0
        assert not hasattr(total, "not_a_counter")

    def test_ambient_accessor_scoping(self):
        assert active_counters() is None
        counters = EvalCounters()
        with use_counters(counters):
            assert active_counters() is counters
        assert active_counters() is None

    def test_render(self):
        assert EvalCounters().render() == "no work recorded"
        rendered = EvalCounters(nfa_transitions=4, seeds_pruned=2).render()
        assert rendered == "nfa_transitions=4, seeds_pruned=2"

    def test_as_dict_covers_every_field(self):
        payload = EvalCounters().as_dict()
        assert set(payload) == {
            "nfa_states_expanded",
            "nfa_transitions",
            "search_states_pruned",
            "deepening_rounds",
            "witness_steps",
            "witnesses",
            "join_build_rows",
            "join_probe_rows",
            "seeds_pruned",
            "condition_evals",
            "conditions_pushed",
            "masks_built",
            "mask_probes",
            "dense_fast_lane",
            "register_files",
            "queries_proven_empty",
            "conditions_simplified",
            "dead_branches_pruned",
        }
