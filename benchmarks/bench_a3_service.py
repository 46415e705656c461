"""Ablation A3 — the query-service runtime vs one-shot evaluation.

Design choice under study: serving repeated queries through
:class:`repro.service.GraphService` (prepared plans + memoised
per-version snapshots + an LRU result cache) versus the pre-service
behaviour of re-parsing, re-typechecking, re-compiling and
re-materialising adjacency on every call.

Three measurements on a repeated-query workload over the standard
``social_network`` generator:

- **cold**: one-shot ``Evaluator(graph.copy()).evaluate(parse_query(t))``
  per call (the copy defeats the snapshot memo, reproducing seed-era
  cost);
- **prepared**: a compiled :class:`PreparedQuery` re-executed per call
  (plan + snapshot reuse, no result cache);
- **warm**: ``GraphService.evaluate`` after a warm-up pass (all three
  reuse layers, result-cache hits).

The acceptance bar asserted below: warm is at least 5× faster than
cold on the repeated workload, and every service-path result is
set-equal to one-shot evaluation on the same graph version. A second
table measures batch throughput: an ``evaluate`` loop vs one
``evaluate_batch`` call, which runs its members in the calling thread
against one snapshot.
"""

from __future__ import annotations

from repro.bench.harness import Table, time_call
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.graph.generators import social_network
from repro.service import GraphService, PreparedQuery

#: The repeated-query workload: each text is evaluated REPEATS times.
WORKLOAD = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "TRAIL (x:Person) -[:knows]-> () -[:knows]-> (y:Person)",
    "SIMPLE (x:Person) ~[:married]~ (y:Person)",
    "TRAIL (x:Person) -[:lives_in]-> (c:City)",
    "TRAIL (x:Person) [~[:married]~ + -[:knows]->] (y:Person)",
]
REPEATS = 20


def _cold_once(graph, text):
    # graph.copy() starts at version 0 with no snapshot memo, so this
    # pays the full seed-era cost: parse, typecheck, compile, freeze.
    return Evaluator(graph.copy()).evaluate(parse_query(text))


def test_a3_cold_vs_warm(benchmark):
    graph = social_network(num_people=16, friend_degree=2, seed=3)
    service = GraphService(graph)
    table = Table(
        "A3: service runtime — cold vs prepared vs warm (cached)",
        ["query", "answers", "cold ms", "prepared ms", "warm ms", "speedup"],
    )

    total_cold = total_warm = 0.0
    for text in WORKLOAD:
        reference = Evaluator(graph).evaluate(parse_query(text))
        # Service answers must be set-equal to one-shot evaluation.
        assert service.evaluate(text) == reference

        _, cold = time_call(
            lambda t=text: [_cold_once(graph, t) for _ in range(REPEATS)]
        )
        prepared_query = PreparedQuery(text)
        _, prepared = time_call(
            lambda q=prepared_query: [q.execute(graph) for _ in range(REPEATS)]
        )
        warm_results, warm = time_call(
            lambda t=text: [service.evaluate(t) for _ in range(REPEATS)]
        )
        assert all(r == reference for r in warm_results)
        total_cold += cold
        total_warm += warm
        table.add(
            text if len(text) <= 44 else text[:41] + "...",
            len(reference),
            cold * 1000,
            prepared * 1000,
            warm * 1000,
            f"{cold / warm:.0f}x",
        )
    table.show()

    hit_rate = service.stats.result_cache.hit_rate
    print(f"result-cache hit rate: {hit_rate:.2f}, "
          f"snapshots built: {service.stats.snapshots_built}")
    # Acceptance criterion: warm >= 5x faster than cold on the
    # repeated workload (in practice it is orders of magnitude).
    assert total_cold >= 5 * total_warm, (
        f"warm serving only {total_cold / total_warm:.1f}x faster than cold"
    )

    benchmark(lambda: service.evaluate(WORKLOAD[0]))
    service.close()


def test_a3_batch_throughput():
    graph = social_network(num_people=16, friend_degree=2, seed=3)
    table = Table(
        "A3: batch evaluation — evaluate loop vs evaluate_batch",
        ["batch size", "evaluate loop ms", "evaluate_batch ms", "queries/s (batch)"],
    )
    for size in (5, 10, 20):
        workload = (WORKLOAD * size)[:size]
        with GraphService(graph) as service:
            sequential_results, sequential = time_call(
                lambda: [
                    service.evaluate(t, use_cache=False) for t in workload
                ]
            )
            batch_results, batched = time_call(
                lambda: service.evaluate_batch(workload, use_cache=False)
            )
        assert batch_results == sequential_results  # deterministic + ordered
        table.add(
            size,
            sequential * 1000,
            batched * 1000,
            size / batched if batched else float("inf"),
        )
    table.show()
