"""Observability: request tracing, engine work counters, /metrics.

Run with: PYTHONPATH=src python examples/observability_demo.py

Demonstrates the :mod:`repro.obs` layer end to end over the HTTP
server:

- a client-chosen ``X-Trace-Id`` is honoured, echoed, and resolves to
  the request's full span tree via ``GET /trace?id=...`` — transport,
  slot wait, worker-thread dispatch, service and engine stages with
  their timings and work counters;
- ``deadline_ms`` bounds server-side evaluation: a blown budget
  answers 504 and the partial trace is kept (error traces bypass
  sampling);
- ``GET /metrics`` serves every layer's counters in one Prometheus
  text scrape, including true fixed-bucket latency histograms;
- ``explain(analyze=True)`` runs the query and appends the observed
  engine work — and the planner's estimated-vs-actual table — to the
  planner summary;
- ``GET /insights`` aggregates the whole workload by query
  fingerprint: calls, cache outcomes, latency, engine work, and how
  far the planner's estimates sat from observed reality.
"""

from repro import GraphService
from repro.graph.generators import social_network
from repro.server import HttpServiceClient, HttpServiceError, serve_background

QUERY = "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"


def show_tree(node: dict, depth: int = 1) -> None:
    duration_ms = node["duration_s"] * 1000
    attrs = node["attributes"]
    extras = ", ".join(
        f"{key}={attrs[key]}"
        for key in ("hit", "answers", "status")
        if key in attrs
    )
    line = f"{'  ' * depth}{node['name']}  {duration_ms:8.3f}ms"
    if extras:
        line += f"  ({extras})"
    if node.get("error"):
        line += f"  !! {node['error']}"
    print(line)
    for child in node["children"]:
        show_tree(child, depth + 1)


def main() -> None:
    graph = social_network(num_people=24, friend_degree=2, seed=4)
    with serve_background(GraphService(graph)) as handle:
        host, port = handle.address
        print(f"serving on http://{host}:{port}")
        with HttpServiceClient(host, port) as client:
            print("\n=== a traced request, stage by stage ===")
            client.query(QUERY, trace_id="0ddba11c0ffee000")
            tree = client.trace("0ddba11c0ffee000")["trace"]
            show_tree(tree)

            print("\n=== engine work counters on the eval span ===")
            dispatch = next(
                c for c in tree["children"] if c["name"] == "server.dispatch"
            )
            eval_span = next(
                c for c in dispatch["children"] if c["name"] == "service.eval"
            )
            for name, value in sorted(eval_span["attributes"].items()):
                print(f"  {name}: {value}")

            print("\n=== a blown deadline: 504, partial trace kept ===")
            try:
                # use_cache=False: a result-cache hit would (correctly)
                # beat any deadline — force a real evaluation.
                client.query(
                    QUERY,
                    use_cache=False,
                    deadline_ms=0.001,
                    trace_id="dead11nedead11ne",
                )
            except HttpServiceError as exc:
                print(f"  {exc}")
            show_tree(client.trace("dead11nedead11ne")["trace"])

            print("\n=== explain --analyze over the wire ===")
            for line in client.explain(QUERY, analyze=True).splitlines():
                print(f"  {line}")

            print("\n=== one /metrics scrape (excerpt) ===")
            wanted = (
                "repro_server_queries",
                "repro_server_timeouts",
                "repro_service_result_cache_hits",
                "repro_engine_nfa_states_expanded",
                "repro_engine_deepening_rounds",
                "repro_traces_recorded",
                "repro_traces_errors",
            )
            for line in client.metrics().splitlines():
                if line.startswith(wanted):
                    print(f"  {line}")

            print("\n=== trace store accounting ===")
            counters = client.trace()["counters"]
            print(
                f"  seen {counters['seen']}, recorded "
                f"{counters['recorded']}, errors {counters['errors']}, "
                f"slow {counters['slow']}"
            )

            print("\n=== /insights: the workload by fingerprint ===")
            # Add a constant-conditioned shape: the two variants
            # collapse into one fingerprint (constants bucket to ?).
            for name in ("alice", "bob"):
                client.query(
                    "TRAIL [ (x:Person) -[:knows]-> (y:Person) ] "
                    f"<< x.name = '{name}' >>"
                )
            payload = client.insights(sort="calls")
            for entry in payload["insights"]:
                plan = entry["plan"]
                print(
                    f"  [{entry['fingerprint']}] {entry['query']}\n"
                    f"    calls {entry['calls']}, errors "
                    f"{entry['errors']}, answers {entry['answers_total']}, "
                    f"cache hits {entry['cache']['hits']}/"
                    f"misses {entry['cache']['misses']}\n"
                    f"    plan: est answers "
                    f"{plan['estimated_answers_mean']:.1f} vs observed "
                    f"{plan['observed_answers_mean']:.1f} -> misestimate "
                    f"{plan['misestimate_factor']:.1f}x "
                    f"(worst {plan['worst_factor']:.1f}x)"
                )

            print("\n=== worst planner misestimates first ===")
            for entry in client.insights(sort="misestimate", limit=3)[
                "insights"
            ]:
                print(
                    f"  {entry['plan']['misestimate_factor']:6.1f}x  "
                    f"{entry['query']}"
                )
            registry = payload["counters"]
            print(
                f"  ({registry['fingerprints']} fingerprints, "
                f"{registry['records']} records, "
                f"{registry['evictions']} evictions)"
            )

            print("\n=== the same profiles as /metrics series ===")
            for line in client.metrics().splitlines():
                if line.startswith("repro_insights_calls"):
                    print(f"  {line}")


if __name__ == "__main__":
    main()
