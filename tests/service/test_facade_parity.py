"""One serving pipeline, three façades: the same script must observe
the same thing through ``GraphService`` and through ``ClusterService``
on the serial and process backends.

Each scenario drives a fresh service and returns what a caller can
see — answers, error kinds, diagnostics. The test compares that, plus
every ``as_dict()`` value the two stats classes share, with a
``GraphService`` run of the same scenario; the absolute assertions
inside the scenarios keep the ``GraphService`` row from being a
comparison with itself (the execution-failure ones fail on a façade
that drops failed queries from ``queries`` / ``latency`` / insights).
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.cluster import ClusterService
from repro.errors import (
    ClusterError,
    DeadlineExceededError,
    EvaluationLimitError,
    GPCTypeError,
)
from repro.gpc.engine import EngineConfig
from repro.graph.generators import social_network, transport_network
from repro.obs import deadline_scope
from repro.service import GraphService

CHEAP = "TRAIL (x:Person) -[:knows]-> (y:Person)"
COSTLY = "TRAIL (x:Person) -[:knows]->{1,4} (y:Person)"
SHORTEST = "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"
ILL_TYPED = "TRAIL [ -[e]->{1,3} ] << e.k = 1 >>"
MALFORMED = "TRAIL (x:Person"

#: Lets CHEAP through and stops COSTLY in the execute step.
TIGHT = EngineConfig(max_intermediate_results=100)
TINY = EngineConfig(max_intermediate_results=1)

FACADES = {
    "graph": lambda graph: GraphService(graph),
    "cluster-serial": lambda graph: ClusterService(
        graph, backend="serial", num_workers=2
    ),
    "cluster-process": lambda graph: ClusterService(
        graph, backend="process", num_workers=2
    ),
}

SHARED_STATS = (
    "queries",
    "batches",
    "snapshots_built",
    "snapshots_derived",
    "plan_cache",
    "result_cache",
)


def _graph():
    return social_network(num_people=12, friend_degree=2, seed=11)


def _kind(outcome):
    """Answers as they are; a failure as the name of what the engine
    raised (the cluster wraps shard errors in ``ClusterError``)."""
    if isinstance(outcome, ClusterError):
        outcome = outcome.__cause__
    if isinstance(outcome, Exception):
        return type(outcome).__name__
    return outcome


def _raised(call, *args, **kwargs):
    with pytest.raises((EvaluationLimitError, DeadlineExceededError, ClusterError)) as info:
        call(*args, **kwargs)
    return _kind(info.value)


def hit_miss_bypass(service):
    miss = service.evaluate(CHEAP)
    hit = service.evaluate(CHEAP)
    bypass = service.evaluate(CHEAP, use_cache=False)
    assert hit is miss and bypass == miss and bypass is not miss
    cache = service.stats.result_cache
    assert (cache.misses, cache.hits, cache.bypasses) == (1, 1, 1)
    assert service.stats.queries == 3
    return miss


def disjoint_mutation_restamps(service):
    before = service.evaluate(CHEAP)
    city = next(iter(service.graph.nodes_with_label("City")))
    service.set_property(city, "mayor", "nobody")
    after = service.evaluate(CHEAP)
    assert after is before
    cache = service.stats.result_cache
    assert (cache.restamps, cache.invalidations) == (1, 0)
    return after


def intersecting_addition_extends(service):
    before = service.evaluate(CHEAP)
    first, second, *_ = sorted(service.graph.nodes_with_label("Person"))
    service.add_edge("parity-edge", second, first, ["knows"])
    after = service.evaluate(CHEAP)
    assert len(after) == len(before) + 1
    cache = service.stats.result_cache
    assert (cache.restamps, cache.extends, cache.invalidations) == (0, 1, 0)
    assert service.stats.snapshots_built == 2
    return after


def unbounded_addition_invalidates(service):
    # SHORTEST compares paths, and {1,} gives no hop bound to seed from.
    service.evaluate(SHORTEST)
    first, second, *_ = sorted(service.graph.nodes_with_label("Person"))
    service.add_edge("parity-edge", second, first, ["knows"])
    after = service.evaluate(SHORTEST)
    cache = service.stats.result_cache
    assert (cache.extends, cache.invalidations) == (0, 1)
    return after


def batch_with_failing_members(service):
    results = service.evaluate_batch(
        [CHEAP, COSTLY, ILL_TYPED], TIGHT, return_exceptions=True
    )
    kinds = [_kind(result) for result in results]
    assert kinds[1:] == [EvaluationLimitError.__name__, GPCTypeError.__name__]
    # The member that failed in the execute step was served and is
    # counted; the one that never typechecked is not.
    assert service.stats.queries == 2
    # Siblings of a failing member are cached all the same.
    assert service.evaluate(CHEAP, TIGHT) is results[0]
    with pytest.raises(GPCTypeError):
        service.evaluate_batch([CHEAP, ILL_TYPED], TIGHT)
    return kinds


def lint_malformed(service):
    diagnostics = [
        [diagnostic.code for diagnostic in service.lint(text)]
        for text in (MALFORMED, ILL_TYPED, CHEAP)
    ]
    assert diagnostics == [["GPC000"], ["GPC001"], []]
    assert service.stats.queries == 0
    return diagnostics


def explain_analyze(service):
    text = service.explain(SHORTEST, analyze=True)
    assert text.startswith(f"plan: {SHORTEST}")
    assert "estimated vs actual:" in text
    answers = len(service.evaluate(SHORTEST))
    assert f"observed execution:\n  answers: {answers}\n" in text
    # The analyzed run went through the execute step: its engine work
    # is in the aggregate, and it is not a served query.
    assert service.stats.engine.nfa_states_expanded > 0
    assert service.stats.queries == 1
    assert service.stats.result_cache.misses == 1
    return answers


def execution_failures(service):
    kinds = [_raised(service.evaluate, COSTLY, TINY)]
    with deadline_scope(1e-9):
        kinds.append(_raised(service.evaluate, SHORTEST))
    assert kinds == [
        EvaluationLimitError.__name__,
        DeadlineExceededError.__name__,
    ]
    # Failed in the execute step: counted, timed, and recorded in
    # insights as erroring calls — not silently dropped.
    assert service.stats.queries == 2
    assert service.stats.latency.count == 2
    entries = service.insights.top(sort="errors")
    assert [entry["errors"] for entry in entries] == [1, 1]
    # A query that never reaches the execute step is the caller's.
    with pytest.raises(GPCTypeError):
        service.evaluate(ILL_TYPED)
    assert service.stats.queries == 2
    assert service.insights.counters()["records"] == 2
    return kinds


def rendered_bytes_live_with_the_entry(service):
    """``rendered`` keeps bytes beside the cached answers and nowhere
    else; ``render`` stands in for a wire encoder and counts its calls."""
    calls = []

    def render(answers):
        calls.append(answers)
        return b"%d answers" % len(answers)

    answers = service.evaluate(CHEAP)
    assert service.rendered(CHEAP, answers) is None  # looking renders nothing
    first = service.rendered(CHEAP, answers, render)
    assert service.rendered(CHEAP, answers, render) is first
    assert service.rendered(CHEAP, service.evaluate(CHEAP)) is first
    # A restamp keeps them ...
    city = next(iter(service.graph.nodes_with_label("City")))
    service.set_property(city, "mayor", "nobody")
    assert service.rendered(CHEAP, service.evaluate(CHEAP), render) is first
    assert len(calls) == 1
    # ... answers the cache does not hold are rendered and not kept ...
    bypass = service.evaluate(CHEAP, use_cache=False)
    assert service.rendered(CHEAP, bypass, render) == first
    assert service.rendered(CHEAP, bypass) is None
    assert len(calls) == 2
    # ... and a write that changes the answers (an extend, here) drops
    # them with the entry: the cache now holds other answers, and bytes made for the old ones
    # (a render racing the write) are never kept beside the new.
    one, two, *_ = sorted(service.graph.nodes_with_label("Person"))
    service.add_edge("parity-edge", two, one, ["knows"])
    after = service.evaluate(CHEAP)
    assert service.rendered(CHEAP, answers, render) == first
    assert service.rendered(CHEAP, answers) is None
    assert service.rendered(CHEAP, after) is None
    kept = service.rendered(CHEAP, after, render)
    assert kept == b"%d answers" % len(after) != first
    assert service.rendered(CHEAP, after) is kept
    assert len(calls) == 4
    service.clear_caches()
    assert service.rendered(CHEAP, after) is None
    # None of this was a cache lookup.
    cache = service.stats.result_cache
    assert (cache.hits, cache.misses, cache.bypasses) == (3, 1, 1)
    return len(calls), first


SCENARIOS = [
    hit_miss_bypass,
    disjoint_mutation_restamps,
    intersecting_addition_extends,
    unbounded_addition_invalidates,
    batch_with_failing_members,
    lint_malformed,
    explain_analyze,
    execution_failures,
    rendered_bytes_live_with_the_entry,
]


@pytest.mark.parametrize("facade", FACADES)
def test_bounded_evaluation_stops_at_its_deadline(facade):
    # 17 nodes, 32 edges — and exponentially many trails between them,
    # which the bounded evaluator builds power by power although it
    # prunes every walk that repeats an edge: the deadline has to fire
    # inside the evaluator's own loops.
    with FACADES[facade](transport_network(4, 4)) as service:
        # A full cyclic collection walks the whole test run's heap (0.6 s
        # and more late in a full run): collect first, so the clock
        # times the evaluation and its deadline, not the collector.
        gc.collect()
        started = time.monotonic()
        with deadline_scope(0.5):
            kind = _raised(service.evaluate, "TRAIL (x) -[:link]->{1,} (y)")
        assert time.monotonic() - started < 1.0
        assert kind == DeadlineExceededError.__name__
        assert service.stats.queries == 1


#: One shape, a text per constant: they share a plan, so a profile.
RANKED = "TRAIL (x:Person) -[:knows]-> (y:Person) << y.rank = {} >>"


@pytest.mark.parametrize("facade", ["graph", "cluster-serial"])
def test_every_read_lands_under_its_prepared_fingerprint(facade, monkeypatch):
    """Hits skip ``prepare``; their fingerprint rides on the cache
    entry. With the registry's own fingerprinting made to fail, every
    outcome still records, and the profiles add up to the stats."""

    def refuse(query):
        raise AssertionError(f"fingerprinted at record time: {query!r}")

    monkeypatch.setattr("repro.obs.insights.query_fingerprint", refuse)
    from repro.graph.ids import DirectedEdgeId

    with FACADES[facade](_graph()) as service:
        city = next(iter(service.graph.nodes_with_label("City")))
        first, second, *_ = sorted(service.graph.nodes_with_label("Person"))
        for text in (CHEAP, CHEAP, SHORTEST, RANKED.format(1), RANKED.format(2)):
            service.evaluate(text)  # misses, then a hit
        service.evaluate(CHEAP, use_cache=False)  # bypass
        service.set_property(city, "mayor", "nobody")
        service.evaluate(RANKED.format(1))  # restamp
        service.add_edge("fresh", second, first, ["knows"])
        service.evaluate(CHEAP)  # extend
        service.evaluate(SHORTEST)  # invalidated
        service.remove_edge(DirectedEdgeId("fresh"))
        service.evaluate(CHEAP)  # refilter
        service.evaluate(CHEAP)  # a hit on the refiltered entry
        service.evaluate_batch([RANKED.format(2), RANKED.format(3)])  # restamp, miss
        cache = service.stats.result_cache
        outcomes = ("hits", "misses", "bypasses", "restamps", "refilters", "extends",
                    "invalidations")
        assert min(getattr(cache, name) for name in outcomes) >= 1, cache
        profiles = service.insights.top()
        assert {profile["fingerprint"] for profile in profiles} == {
            service.prepare(text).fingerprint[0] for text in (CHEAP, SHORTEST, RANKED.format(0))
        }
        assert sum(profile["calls"] for profile in profiles) == service.stats.queries == 13
        for name in outcomes:
            assert sum(profile["cache"][name] for profile in profiles) == getattr(cache, name)


#: The three read classes of the ``social_serving`` benchmark workload;
#: the first and the last read ``knows``.
SOCIAL_TEXTS = (
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "SIMPLE (x:Person) ~[:married]~ (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL (y:Person) -[:lives_in]-> (c:City)",
)
KNOWS_READERS = (SOCIAL_TEXTS[0], SOCIAL_TEXTS[2])


def _social():
    return social_network(num_people=24, num_cities=4, friend_degree=3, seed=5)


def _write_cycle():
    """That workload's write cycle: a restamp, an edge every ``knows``
    reader sees, a restamp, and the edge gone again."""
    mood = {"n": "p3"}
    return [
        {"op": "set_property", "element": mood, "key": "mood", "value": 1},
        {"op": "add_edge", "key": "cycle", "source": "p1", "target": "p2",
         "labels": ["knows"], "properties": {"since": 2024}},
        {"op": "set_property", "element": mood, "key": "mood", "value": 2},
        {"op": "remove_edge", "key": "cycle"},
    ]


def _mirror(service, op) -> None:
    from repro.graph.ids import DirectedEdgeId, NodeId

    if op["op"] == "set_property":
        service.set_property(NodeId(op["element"]["n"]), op["key"], op["value"])
    elif op["op"] == "add_edge":
        service.add_edge(op["key"], NodeId(op["source"]), NodeId(op["target"]),
                         op["labels"], op["properties"])
    else:
        service.remove_edge(DirectedEdgeId(op["key"]))


@pytest.mark.parametrize("facade", ["graph", "cluster-process"])
def test_revalidated_reads_through_a_server_are_exact(facade):
    """A ``GraphServer`` in front of the façade, reads of the three
    texts between the steps of the write cycle: every read equals the
    mirror's, a read of an unchanged text right after a read is
    ``not_modified`` and returns the held set itself, and a read after
    a write the text sees is a full reply."""
    from repro.server import HttpServiceClient, serve_background

    mirror = GraphService(_social())
    with serve_background(FACADES[facade](_social())) as handle:
        with HttpServiceClient(*handle.address) as client:
            stats = handle.server.stats
            held: dict = {}
            revalidated = dict.fromkeys(SOCIAL_TEXTS, 0)

            def read_all(changed=()):
                for text in SOCIAL_TEXTS:
                    before = stats.bodies_not_modified
                    answers = client.query(text)
                    assert answers == mirror.evaluate(text, use_cache=False)
                    if stats.bodies_not_modified > before:
                        assert text not in changed
                        assert answers is held[text]
                        revalidated[text] += 1
                    else:
                        assert text in changed or text not in held
                    held[text] = answers

            read_all(changed=SOCIAL_TEXTS)
            for _ in range(2):
                for op in _write_cycle():
                    client.mutate([op])
                    _mirror(mirror, op)
                    invalidating = op["op"] != "set_property"
                    read_all(changed=KNOWS_READERS if invalidating else ())
                    read_all()
            assert min(revalidated.values()) >= 1
            cache = handle.server.service.stats.result_cache
            # Per cycle, the add extends each `knows` reader and the
            # remove refilters it.
            assert cache.extends >= 2 * len(KNOWS_READERS)
            assert cache.refilters >= 2 * len(KNOWS_READERS)
            assert cache.restamps >= 4


def _shared_stats(service):
    payload = service.stats.as_dict()
    return {key: payload[key] for key in SHARED_STATS}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
@pytest.mark.parametrize("facade", FACADES)
def test_same_script_same_observations(facade, scenario):
    with FACADES[facade](_graph()) as service:
        with GraphService(_graph()) as reference:
            assert scenario(service) == scenario(reference)
            assert _shared_stats(service) == _shared_stats(reference)
            # One latency sample per observed query, batch member or not.
            for facade_stats in (service.stats, reference.stats):
                assert facade_stats.latency.count == facade_stats.queries
