"""Network serving: the HTTP front end over a query service.

Run with: PYTHONPATH=src python examples/server_demo.py

Demonstrates :mod:`repro.server` — a stdlib-only asyncio HTTP/1.1
server wrapping :class:`repro.service.GraphService` (or
:class:`repro.cluster.ClusterService`, same surface). Answers travel
in a deterministic JSON encoding and decode back to the exact
``frozenset[Answer]`` the engine computed, so a remote client and a
local evaluation compare ``==``. Each ``/query`` takes one in-flight
slot and one worker-thread hop; overload is shed with 429; shutdown
drains gracefully.
"""

import threading

from repro import GraphService
from repro.graph.generators import social_network
from repro.server import HttpServiceClient, serve_background

QUERIES = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), TRAIL (y:Person) -[:lives_in]-> (c:City)",
]


def main() -> None:
    graph = social_network(num_people=14, friend_degree=2, seed=4)
    service = GraphService(graph)
    reference = {text: service.evaluate(text) for text in QUERIES}

    print("=== serving over HTTP ===")
    with serve_background(service) as handle:
        host, port = handle.address
        print(f"  listening on http://{host}:{port}")
        with HttpServiceClient(host, port) as client:
            print(f"  healthz: {client.healthz()}")

            print("\n=== HTTP answers decode frozenset-identical ===")
            for text in QUERIES:
                answers = client.query(text)
                status = "OK" if answers == reference[text] else "MISMATCH"
                print(f"  [{status}] {len(answers):4d} answers  {text}")

            print("\n=== mutations over the wire ===")
            client.mutate(
                [
                    {"op": "add_node", "key": "eve", "labels": ["Person"],
                     "properties": {"name": "Eve"}},
                    {"op": "add_node", "key": "mal", "labels": ["Person"],
                     "properties": {"name": "Mal"}},
                    {"op": "add_edge", "key": "eve-mal", "source": "eve",
                     "target": "mal", "labels": ["knows"]},
                ]
            )
            answers = client.query(QUERIES[0])
            print(
                f"  after add_edge: {len(answers)} answers "
                f"(was {len(reference[QUERIES[0]])}), "
                f"version {client.healthz()['version']}"
            )

        print("\n=== concurrent clients, one dispatch per query ===")

        def hammer() -> None:
            with HttpServiceClient(host, port) as worker:
                for _ in range(5):
                    worker.query(QUERIES[0])

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = handle.server.stats_payload()
        print(
            f"  queries: {stats['queries']}, "
            f"dispatches: {stats['dispatches']}, "
            f"rejected: {stats['rejected']}"
        )
        print(
            f"  service result-cache hit rate: "
            f"{stats['service']['result_cache']['hit_rate']:.2f}"
        )
    print("\n  drained: in-flight finished, service closed.")


if __name__ == "__main__":
    main()
