"""Sharded cluster serving: scatter/gather over partitioned seeds.

Run with: PYTHONPATH=src python examples/cluster_demo.py

Demonstrates :class:`repro.cluster.ClusterService` — a
:class:`repro.service.GraphService` whose execute step is
scatter/gather: each query's start-node space is partitioned into
balanced cells and evaluated shard-by-shard on an executor backend (serial here for the equivalence check, a
process pool for real CPU parallelism). GPC's set semantics makes the
merge lossless: answers from disjoint seed cells are disjoint and
union to exactly the unsharded answer set.
"""

from repro import GraphService
from repro.cluster import ClusterService
from repro.graph.generators import social_network

QUERIES = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), TRAIL (y:Person) -[:lives_in]-> (c:City)",
]


def main() -> None:
    graph = social_network(num_people=14, friend_degree=2, seed=4)

    print("=== single service (the baseline) ===")
    single = GraphService(graph.copy())
    reference = {text: single.evaluate(text) for text in QUERIES}
    for text in QUERIES:
        print(f"  {len(reference[text]):4d} answers  {text}")
    single.close()

    print("\n=== sharded serving: how a query is split ===")
    with ClusterService(
        graph.copy(), backend="serial", num_workers=3
    ) as cluster:
        print(cluster.explain(QUERIES[1]))
        print()
        for text in QUERIES:
            answers = cluster.evaluate(text)
            status = "OK" if answers == reference[text] else "MISMATCH"
            print(f"  [{status}] {len(answers):4d} answers  {text}")
        stats = cluster.stats.as_dict()
        print(
            f"\n  shard tasks: {stats['scatters']}, "
            f"failures: {stats['shard_failures']}, "
            f"queries: {stats['queries']}"
        )

    print("\n=== process-pool backend (ships snapshot once/version) ===")
    with ClusterService(
        graph.copy(), backend="process", num_workers=2
    ) as cluster:
        for text in QUERIES:
            answers = cluster.evaluate(text)
            status = "OK" if answers == reference[text] else "MISMATCH"
            print(f"  [{status}] {len(answers):4d} answers  {text}")
        batch = cluster.evaluate_batch(QUERIES)
        print(
            f"  batch of {len(batch)} queries: "
            f"{'all equal' if all(b == reference[t] for b, t in zip(batch, QUERIES)) else 'MISMATCH'}"
        )
        stats = cluster.stats.as_dict()
        print(
            f"  snapshots shipped: {stats['snapshots_shipped']} "
            f"(one per graph version), workers seen: "
            f"{sorted(stats['per_worker'])}"
        )


if __name__ == "__main__":
    main()
