"""SemanticResultCache behaviour and LRUCache single-flight."""

from __future__ import annotations

import threading
import time

import pytest

from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.graph.builder import GraphBuilder
from repro.service import GraphService, LRUCache, SemanticResultCache
from repro.service.stats import CacheStats


def two_worlds_service() -> GraphService:
    """Two label-disjoint subgraphs: mutations in one provably cannot
    affect queries over the other."""
    graph = (
        GraphBuilder()
        .node("p1", "Person", team="db")
        .node("p2", "Person", team="db")
        .node("d1", "Device")
        .node("d2", "Device")
        .edge("p1", "p2", "knows", key="k1")
        .edge("d1", "d2", "pings", key="g1")
        .build()
    )
    return GraphService(graph)


PERSON_QUERY = "TRAIL (x:Person) -[e:knows]-> (y:Person)"
PERSON_SHORTEST = "SHORTEST (x:Person) -[e:knows]->{1,} (y:Person)"
DEVICE_QUERY = "TRAIL (x:Device) -[e:pings]-> (y:Device)"


class TestSemanticInvalidation:
    def test_disjoint_mutation_keeps_hits_coming(self):
        service = two_worlds_service()
        person_before = service.evaluate(PERSON_QUERY)
        for i in range(5):  # a stream of device-world mutations
            d = service.add_node(f"dev{i}", ["Device"])
            service.add_edge(
                f"dp{i}", d, next(iter(service.graph.nodes_with_label("Device"))),
                ["pings"],
            )
            assert service.evaluate(PERSON_QUERY) is person_before
        stats = service.stats.result_cache
        assert stats.hits == 5
        assert stats.restamps == 5
        assert stats.invalidations == 0
        assert stats.misses == 1

    def test_intersecting_mutation_invalidates_and_recomputes(self):
        """An added `knows` edge invalidates the ``SHORTEST`` entry and
        extends the path-local one; both equal a fresh evaluation."""
        service = two_worlds_service()
        befores = [service.evaluate(text) for text in (PERSON_QUERY, PERSON_SHORTEST)]
        people = sorted(service.graph.nodes_with_label("Person"))
        service.add_edge("k2", people[1], people[0], ["knows"])
        for text, before in zip((PERSON_QUERY, PERSON_SHORTEST), befores):
            after = service.evaluate(text)
            assert after != before
            assert after == Evaluator(service.graph).evaluate(parse_query(text))
        stats = service.stats.result_cache
        assert (stats.invalidations, stats.extends, stats.restamps) == (1, 1, 0)

    def test_each_entry_checked_against_its_own_footprint(self):
        service = two_worlds_service()
        person = service.evaluate(PERSON_QUERY)
        device = service.evaluate(DEVICE_QUERY)
        devices = sorted(service.graph.nodes_with_label("Device"))
        service.add_edge("g2", devices[1], devices[0], ["pings"])
        # Person entry survives, device entry is extended.
        assert service.evaluate(PERSON_QUERY) is person
        fresh_device = service.evaluate(DEVICE_QUERY)
        assert fresh_device != device
        stats = service.stats.result_cache
        assert stats.restamps == 1
        assert stats.extends == 1

    def test_restamped_entry_hits_exactly_afterwards(self):
        service = two_worlds_service()
        service.evaluate(PERSON_QUERY)
        service.add_node("lone", ["Device"])
        assert service.evaluate(PERSON_QUERY) is not None  # restamp
        service.evaluate(PERSON_QUERY)  # exact version hit now
        stats = service.stats.result_cache
        assert stats.hits == 2
        assert stats.restamps == 1

    def test_overflowed_delta_log_invalidates(self):
        graph = (
            GraphBuilder()
            .node("p1", "Person")
            .node("p2", "Person")
            .edge("p1", "p2", "knows", key="k1")
            .build()
        )
        service = GraphService(graph)
        service.graph._delta_log = type(service.graph._delta_log)(maxlen=2)
        service.evaluate(PERSON_QUERY)
        for i in range(4):  # more mutations than the log retains
            service.add_node(f"x{i}", ["Device"])
        service.evaluate(PERSON_QUERY)
        stats = service.stats.result_cache
        # Disjoint mutations, but the chain is gone: must recompute.
        assert stats.hits == 0
        assert stats.invalidations == 1

    def test_cache_without_delta_source_flushes_per_version(self):
        cache = SemanticResultCache(8, CacheStats())
        cache.put("q", 1, None, frozenset({1}))
        assert cache.get("q", 1) == frozenset({1})
        assert cache.get("q", 2) is None  # no semantics available
        assert cache.stats.misses == 1

    def test_put_never_downgrades_newer_stamp(self):
        cache = SemanticResultCache(8, CacheStats())
        cache.put("q", 5, None, frozenset({"new"}))
        cache.put("q", 3, None, frozenset({"old"}))  # racing old writer
        assert cache.get("q", 5) == frozenset({"new"})

    def test_eviction_counted(self):
        cache = SemanticResultCache(2, CacheStats())
        for i in range(4):
            cache.put(f"q{i}", 1, None, frozenset())
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SemanticResultCache(0)

    def test_texts_of_one_shape_share_footprint_and_fingerprint(self):
        """Every text of a shape is bound to the shape's prepared query,
        so its entry holds that query's footprint and fingerprint — one
        object each, however many texts."""
        service = two_worlds_service()
        texts = [f"TRAIL (x:Person) -[e:knows]-> (y) << y.rank = {i} >>" for i in range(20)]
        for text in texts:
            service.evaluate(text)
        entries = list(service._result_cache._entries.values())
        assert len(entries) == len(texts)
        assert len({id(entry.footprint) for entry in entries}) == 1
        assert len({id(entry.fingerprint) for entry in entries}) == 1
        prepared = service.prepare(texts[0])
        assert entries[0].footprint is prepared.footprint
        assert entries[0].fingerprint is prepared.fingerprint
        [profile] = service.insights.top()
        assert profile["fingerprint"] == prepared.fingerprint[0]
        assert profile["calls"] == len(texts)


class TestRenderedBytes:
    """The lazily filled ``rendered`` slot: bytes of an answer set live
    on its entry — nowhere else — and die with it."""

    def test_rendered_once_then_served_from_the_entry(self):
        cache = SemanticResultCache(8, CacheStats())
        answers = frozenset({"a"})
        cache.put("q", 1, None, answers)
        calls = []

        def render(result):
            calls.append(result)
            return b"bytes of a"

        assert cache.rendered("q", answers) is None
        first = cache.rendered("q", answers, render)
        assert first == b"bytes of a"
        assert cache.rendered("q", answers, render) is first
        assert cache.rendered("q", answers) is first
        assert calls == [answers]
        # Not lookups: no hit, no miss, no LRU movement.
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)

    def test_only_the_very_frozenset_the_entry_holds(self):
        cache = SemanticResultCache(8, CacheStats())
        held = frozenset({"a", "b"})
        equal_copy = frozenset(["b", "a"])
        assert equal_copy == held and equal_copy is not held
        cache.put("q", 1, None, held)
        assert cache.rendered("q", equal_copy, lambda r: b"copy") == b"copy"
        assert cache.rendered("q", held) is None  # nothing was kept
        assert cache.rendered("other", held, lambda r: b"x") == b"x"
        assert cache.rendered("q", held) is None

    def test_entry_replaced_while_rendering_keeps_nothing(self):
        # The `is` check under the lock: a write lands between the
        # evaluation and the end of the render.
        cache = SemanticResultCache(8, CacheStats())
        old, new = frozenset({"old"}), frozenset({"new"})
        cache.put("q", 1, None, old)

        def render(result):
            cache.put("q", 2, None, new)  # the racing recompute
            return b"bytes of old"

        assert cache.rendered("q", old, render) == b"bytes of old"
        assert cache.rendered("q", new) is None
        assert cache.rendered("q", old) is None

    def test_restamp_keeps_invalidation_drops(self):
        service = two_worlds_service()
        answers = service.evaluate(PERSON_QUERY)
        kept = service.rendered(PERSON_QUERY, answers, lambda r: b"people")
        devices = sorted(service.graph.nodes_with_label("Device"))
        service.add_edge("g2", devices[1], devices[0], ["pings"])
        assert service.evaluate(PERSON_QUERY) is answers  # restamped
        assert service.rendered(PERSON_QUERY, answers) is kept
        people = sorted(service.graph.nodes_with_label("Person"))
        service.add_edge("k2", people[1], people[0], ["knows"])
        fresh = service.evaluate(PERSON_QUERY)  # invalidated, recomputed
        assert fresh is not answers
        assert service.rendered(PERSON_QUERY, fresh) is None
        assert service.rendered(PERSON_QUERY, answers) is None

    def test_eviction_and_clear_drop_the_bytes(self):
        import gc
        import weakref

        class Body:
            """Stands in for the bytes, which cannot be weakly referenced."""

            def __init__(self, data: bytes):
                self.data = data

        cache = SemanticResultCache(2, CacheStats())
        answers = frozenset({"a"})
        cache.put("q0", 1, None, answers)
        body = cache.rendered("q0", answers, lambda r: Body(b"q0"))
        alive = weakref.ref(body)
        del body
        assert alive() is not None
        cache.put("q1", 1, None, frozenset({"b"}))
        cache.put("q2", 1, None, frozenset({"c"}))  # evicts q0
        gc.collect()
        assert alive() is None and cache.rendered("q0", answers) is None

        held = frozenset({"b2"})
        cache.put("q1", 1, None, held)
        alive = weakref.ref(cache.rendered("q1", held, lambda r: Body(b"q1")))
        assert alive() is not None
        cache.clear()
        gc.collect()
        assert alive() is None and cache.rendered("q1", held) is None

    def test_etag_is_the_digest_of_the_kept_bytes_and_lives_with_them(self):
        import hashlib

        cache = SemanticResultCache(8, CacheStats())
        answers, other = frozenset({"a"}), frozenset({"a"})
        cache.put("q", 1, None, answers)
        assert cache.etag("q", answers) is None  # no bytes yet
        cache.rendered("q", answers, lambda r: b"bytes of a")
        etag = cache.etag("q", answers)
        assert etag == hashlib.sha256(b"bytes of a").hexdigest()[:32]
        assert cache.etag("q", answers) is etag  # hashed once
        assert cache.etag("q", other) is None  # equal is not enough: `is`
        cache.put("q", 2, None, frozenset({"b"}))  # a recompute replaces the entry
        assert cache.etag("q", answers) is None

    def test_an_equal_put_at_the_same_version_keeps_the_first(self):
        """A query repeated within a batch (or two racing misses) puts
        equal answers twice: both callers get the first set back, so
        its bytes are rendered once and kept."""
        cache = SemanticResultCache(8, CacheStats())
        first, second = frozenset({"a"}), frozenset({"a"})
        assert cache.put("q", 1, None, first) is first
        cache.rendered("q", first, lambda r: b"bytes of a")
        assert cache.put("q", 1, None, second) is first
        assert cache.rendered("q", first) == b"bytes of a"
        # A newer version, or different answers, replace the entry.
        assert cache.put("q", 2, None, second) is second
        assert cache.rendered("q", second) is None
        assert cache.put("q", 2, None, frozenset({"b"})) == frozenset({"b"})
        assert cache.rendered("q", second) is None

    def test_two_renders_racing_keep_the_first_bytes(self):
        cache = SemanticResultCache(8, CacheStats())
        answers = frozenset({"a"})
        cache.put("q", 1, None, answers)

        def slower(result):
            assert cache.rendered("q", result, lambda r: b"first") == b"first"
            assert cache.etag("q", result) is not None
            return b"second"

        assert cache.rendered("q", answers, slower) == b"second"
        # The digest handed out still names the bytes the entry keeps.
        assert cache.rendered("q", answers) == b"first"

    def test_use_cache_false_never_attaches(self):
        service = two_worlds_service()
        cached = service.evaluate(PERSON_QUERY)
        bypass = service.evaluate(PERSON_QUERY, use_cache=False)
        assert bypass == cached and bypass is not cached
        assert service.rendered(PERSON_QUERY, bypass, lambda r: b"x") == b"x"
        assert service.rendered(PERSON_QUERY, cached) is None
        # ... also when the cache holds nothing for the query at all.
        lone = service.evaluate(DEVICE_QUERY, use_cache=False)
        assert service.rendered(DEVICE_QUERY, lone, lambda r: b"y") == b"y"
        assert service.rendered(DEVICE_QUERY, lone) is None


class TestSingleFlight:
    def test_concurrent_misses_share_one_factory_run(self):
        cache = LRUCache(8)
        calls: list[int] = []
        barrier = threading.Barrier(6)

        def factory():
            calls.append(1)
            time.sleep(0.05)  # long enough for every waiter to queue
            return "value"

        results: list[str] = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_create("key", factory))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["value"] * 6
        assert len(calls) == 1  # the whole point
        assert cache.stats.misses == 1
        assert cache.stats.dedup_waits == 5
        assert cache.stats.hits == 5  # waiters re-probe and hit

    def test_failing_factory_releases_waiters(self):
        cache = LRUCache(8)
        attempts: list[int] = []
        barrier = threading.Barrier(3)

        def factory():
            attempts.append(1)
            time.sleep(0.02)
            if len(attempts) == 1:
                raise RuntimeError("first build fails")
            return "second-time-lucky"

        outcomes: list[object] = []

        def worker():
            barrier.wait()
            try:
                outcomes.append(cache.get_or_create("key", factory))
            except RuntimeError as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Exactly one caller saw the failure; the others retried and
        # got the second factory run's value.
        errors = [o for o in outcomes if isinstance(o, RuntimeError)]
        values = [o for o in outcomes if o == "second-time-lucky"]
        assert len(errors) == 1
        assert len(values) == 2
        assert len(attempts) == 2

    def test_sequential_behaviour_unchanged(self):
        cache = LRUCache(4)
        assert cache.get_or_create("k", lambda: 1) == 1
        assert cache.get_or_create("k", lambda: 2) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.dedup_waits == 0

    def test_service_prepare_is_single_flight(self):
        service = two_worlds_service()
        barrier = threading.Barrier(4)
        prepared: list[object] = []

        def worker():
            barrier.wait()
            prepared.append(service.prepare(PERSON_QUERY))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(p.plan) for p in prepared}) == 1
        assert service.stats.plan_cache.misses == 1
