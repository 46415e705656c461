"""The metrics model itself: every record's rendering is complete, and
records that carry no lock lose no update under their owner's."""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import fields, is_dataclass

import pytest

from repro.cluster.stats import ClusterStats
from repro.graph.generators import social_network
from repro.obs import EvalCounters
from repro.obs.counters import Counters, LatencyRecorder
from repro.obs.insights import QueryInsight
from repro.server.stats import ServerStats
from repro.service import GraphService

#: Importing them is what defines them: every stats module is named
#: here so that no record can hide from the sweep below.
_ROOTS = (ClusterStats, QueryInsight, ServerStats)


def _record_types(cls=Counters):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


RECORDS = sorted(set(_record_types()), key=lambda cls: cls.__qualname__)


class TestEveryRenderingIsComplete:
    """A field added to a record later cannot be forgotten in a
    rendering: ``as_dict`` is derived, never listed."""

    def test_the_records_are_the_ones_we_think(self):
        assert set(_ROOTS) <= set(RECORDS)
        names = {cls.__name__ for cls in RECORDS}
        assert names >= {
            "CacheOutcomes", "CacheStats", "ClusterStats", "EvalCounters",
            "PlanQuality", "QueryInsight", "RegistryStats", "ServerStats",
            "ServiceStats", "SharedCounters",
        }

    @pytest.mark.parametrize("record", RECORDS, ids=lambda c: c.__name__)
    def test_as_dict_lists_exactly_the_fields_and_the_derived_values(self, record):
        assert is_dataclass(record)
        declared = {f.name for f in fields(record) if not f.name.startswith("_")}
        assert set(record().as_dict()) == declared | set(record.derived)
        # Every derived value is a real property, and none shadows a field.
        for name in record.derived:
            assert isinstance(getattr(record, name), property), name
        assert not declared & set(record.derived)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda c: c.__name__)
    def test_no_record_writes_its_own_rendering(self, record):
        # SharedCounters' override only takes the lock around the base's.
        owners = {
            cls.__name__ for cls in record.__mro__ if "as_dict" in vars(cls)
        }
        assert owners <= {"Counters", "SharedCounters"}


class _YieldingRecorder(LatencyRecorder):
    """A recorder whose read-modify-write is as wide as a race needs.

    ``count += 1`` is a few bytecodes: under the GIL two threads almost
    never interleave inside it, so a stress test over the real recorder
    passes with or without a lock (measured: 3 of 3 runs green with the
    lock in ``_observe`` removed). This one reads, *gives the GIL away*,
    then writes — an unsynchronised pair of callers then loses an update
    every time, and callers serialised by their owner's lock never do.
    Records carry no lock, so this is exactly what that lock is for.
    """

    def record(self, seconds: float) -> None:
        seen = self.count
        time.sleep(0)  # a switch point between the read and the write
        super().record(seconds)
        self.count = seen + 1


class TestNoLostUpdates:
    """8 threads x 200 evaluations over 4 texts: with every record
    lock-free and the owners holding the locks, every count is exact."""

    TEXTS = (
        "TRAIL (x:Person) -[:knows]-> (y:Person)",
        "TRAIL (x:Person) -[:lives_in]-> (c:City)",
        "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
        "SIMPLE (x:Person) -[:knows]->{1,2} (y:Person)",
    )
    THREADS, CALLS = 8, 200

    def _hammer(self, service):
        """Per-call engine work summed by the callers themselves — the
        figure the service's aggregate must reproduce exactly."""
        expected = EvalCounters()
        tally = threading.Lock()
        errors: list[Exception] = []

        class Spy(type(service)):
            def _observe(self, seen):
                with tally:
                    expected.merge(seen.counters)
                super()._observe(seen)

        service.__class__ = Spy

        def worker(offset):
            try:
                for call in range(self.CALLS):
                    text = self.TEXTS[(offset + call) % len(self.TEXTS)]
                    # One call in four skips the cache: a bypass.
                    service.evaluate(text, use_cache=bool((offset + call) % 4))
            except Exception as exc:  # reported below, in the test thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        return expected

    def test_every_aggregate_is_exact(self):
        total = self.THREADS * self.CALLS
        with GraphService(social_network(12, 2, 11)) as service:
            service.stats.latency = _YieldingRecorder()
            expected = self._hammer(service)
            stats = service.stats
            assert stats.queries == total
            assert stats.latency.count == total
            assert sum(e["calls"] for e in service.insights.top(limit=50)) == total
            assert service.insights.counters()["records"] == total
            assert stats.engine.as_dict() == expected.as_dict()
            assert expected.total() > 0  # the comparison is not of zeros
            cache = stats.result_cache
            assert cache.hits + cache.misses + cache.bypasses == total
            assert cache.bypasses == total // 4
