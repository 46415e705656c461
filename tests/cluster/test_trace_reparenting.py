"""Trace propagation across the cluster's executor boundaries.

Shard evaluation happens on pool threads or in worker *processes*,
where the caller's contextvars are invisible. The router ships an
explicit ``(trace_id, span_id)`` carrier in each ShardCall, the worker
rebuilds a detached span around evaluation and returns it serialised
in the ShardOutcome, and the gatherer re-parents every shard span
under the request's ``cluster.eval`` span. These tests pin that whole
loop, per backend, plus the per-shard engine counters that ride home
the same way."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterService
from repro.graph.generators import social_network
from repro.obs import TraceStore, Tracer

QUERY = "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"


def _graph():
    return social_network(num_people=14, friend_degree=2, seed=9)


def _find(tree: dict, name: str) -> list[dict]:
    found = [tree] if tree["name"] == name else []
    for child in tree.get("children", []):
        found.extend(_find(child, name))
    return found


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_shard_spans_reparent_under_the_request_trace(backend):
    tracer = Tracer(TraceStore())
    with ClusterService(
        _graph(), backend=backend, num_workers=2
    ) as cluster:
        with tracer.trace("request") as root:
            cluster.evaluate(QUERY, use_cache=False)
    tree = tracer.store.recent()[0]
    eval_spans = _find(tree, "cluster.eval")
    assert len(eval_spans) == 1
    assert eval_spans[0]["attributes"]["shards"] == 2
    shards = _find(tree, "cluster.shard")
    assert len(shards) == 2
    for shard in shards:
        # Adopted: rewritten into the request's trace, parented under
        # the cluster.eval span, worker tag preserved.
        assert shard["trace_id"] == root.trace_id
        assert shard["parent_id"] == eval_spans[0]["span_id"]
        assert shard["attributes"]["worker"]
        assert shard["error"] is None
    # Per-shard engine counters came home as span attributes, and at
    # least one shard did real NFA work.
    assert (
        sum(s["attributes"]["nfa_states_expanded"] for s in shards) > 0
    )


def test_process_workers_tag_spans_with_their_pid():
    tracer = Tracer(TraceStore())
    with ClusterService(
        _graph(), backend="process", num_workers=2
    ) as cluster:
        with tracer.trace("request"):
            cluster.evaluate(QUERY, use_cache=False)
    shards = _find(tracer.store.recent()[0], "cluster.shard")
    assert shards
    workers = {shard["attributes"]["worker"] for shard in shards}
    assert all(worker.startswith("pid-") for worker in workers)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_engine_counters_aggregate_into_cluster_stats(backend):
    with ClusterService(
        _graph(), backend=backend, num_workers=2
    ) as cluster:
        cluster.evaluate(QUERY, use_cache=False)
        engine = cluster.stats.as_dict()["engine"]
        cluster.evaluate(QUERY.replace("[:knows]", "[e:knows]"), use_cache=False)
        grouped = cluster.stats.as_dict()["engine"]
    assert engine["nfa_states_expanded"] > 0
    assert engine["nfa_transitions"] > 0
    assert engine["deepening_rounds"] == 0  # every pair at its minimum
    assert engine["witness_steps"] >= engine["witnesses"] > 0
    # The group variable changes neither the route — every iteration
    # consumes an edge, so its lists are read off the runs — nor the
    # search: the unrolled copies of the body are one site, nothing to
    # carry a register for.
    assert grouped["witnesses"] == 2 * engine["witnesses"]
    assert grouped["deepening_rounds"] == 0
    assert engine["dense_fast_lane"] > 0 == engine["register_files"]
    assert grouped["dense_fast_lane"] == 2 * engine["dense_fast_lane"]
    assert grouped["register_files"] == 0


def test_untraced_evaluation_ships_no_spans():
    with ClusterService(
        _graph(), backend="thread", num_workers=2
    ) as cluster:
        cluster.evaluate(QUERY, use_cache=False)
        # Counters still flow without a trace (always-on), spans don't.
        assert cluster.stats.as_dict()["engine"]["nfa_states_expanded"] > 0


def test_batch_evaluations_keep_shard_spans_per_query():
    tracer = Tracer(TraceStore())
    queries = [
        QUERY,
        "TRAIL (x:Person) -[:knows]-> (y:Person)",
    ]
    with ClusterService(
        _graph(), backend="thread", num_workers=2
    ) as cluster:
        with tracer.trace("request"):
            cluster.evaluate_batch(queries, use_cache=False)
    tree = tracer.store.recent()[0]
    eval_spans = _find(tree, "cluster.eval")
    assert len(eval_spans) == len(queries)
    for eval_span in eval_spans:
        # One adopted shard span per scattered call (cell counts are
        # query-dependent: seedless cells may be pruned).
        children = [c["name"] for c in eval_span["children"]]
        assert (
            children.count("cluster.shard")
            == eval_span["attributes"]["shards"]
            >= 1
        )
