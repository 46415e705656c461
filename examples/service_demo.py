"""The query-service runtime: prepared queries, caching, batching.

Run with: python examples/service_demo.py
"""

from repro import GraphService, PreparedQuery
from repro.graph.generators import social_network


def main() -> None:
    # 1. Stand a service up over a graph. The service owns the graph
    #    and tracks its version for cache invalidation.
    service = GraphService(social_network(num_people=12, seed=1))
    print(f"== serving {service.graph!r} (version {service.version}) ==")

    # 2. Repeated queries hit the result cache: parse, typecheck,
    #    automaton compilation and adjacency indexing all happen once.
    query = "TRAIL (x:Person) -[e:knows]-> (y:Person)"
    for round_number in (1, 2, 3):
        answers = service.evaluate(query)
        stats = service.stats.result_cache
        print(f"  round {round_number}: {len(answers)} answers "
              f"(cache hits={stats.hits}, misses={stats.misses})")

    # 3. Mutations bump the graph version; stale cache entries can
    #    never be served again.
    person = next(iter(service.graph.nodes_with_label("Person")))
    newcomer = service.add_node("newbie", ["Person"], {"name": "Newbie"})
    service.add_edge("enew", person, newcomer, ["knows"], {"since": 2026})
    print(f"== after mutation (version {service.version}) ==")
    print(f"  {len(service.evaluate(query))} answers "
          f"(one more than before)")

    # 4. Prepared queries compile once and run against any graph.
    prepared = PreparedQuery("SHORTEST (x:Person) -[:knows]->{1,} (y:Person)")
    for people in (6, 9):
        graph = social_network(num_people=people, seed=7)
        print(f"  prepared on {people}-person network: "
              f"{len(prepared.execute(graph))} shortest answers")

    # 5. A batch shares one snapshot and runs in this thread; results
    #    stay in order.
    batch = service.evaluate_batch([
        "TRAIL (x:Person) -[:lives_in]-> (c:City)",
        "SIMPLE (x:Person) ~[:married]~ (y:Person)",
        query,
    ])
    print("== batch ==")
    print(f"  result sizes: {[len(r) for r in batch]}")

    # 6. Serving metrics: hit rates and latency percentiles.
    summary = service.stats.as_dict()
    print("== stats ==")
    print(f"  queries={summary['queries']} "
          f"result hit_rate={summary['result_cache']['hit_rate']:.2f} "
          f"p50={summary['latency']['p50_s'] * 1e6:.0f}us "
          f"p99={summary['latency']['p99_s'] * 1e6:.0f}us")
    service.close()


if __name__ == "__main__":
    main()
