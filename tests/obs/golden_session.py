"""The scripted session behind ``test_golden_session.py``.

One script — hit, restamp, miss, extend, invalidation, bypass, an
execute-step error, a blown deadline, a batch, mutations and a lint —
driven through each serving façade, and what the three observability
surfaces say afterwards, with everything that depends on the clock or
on thread scheduling masked. It touches only what a caller can reach
(façade methods, ``stats.as_dict()``, ``insights.top()``, the HTTP
endpoints), so the same file runs against any commit:
``golden_session.json`` was written by running it against the parent
of the metrics-model change (``python tests/obs/golden_session.py >
tests/obs/golden_session.json`` with that tree's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import json
import re

from repro.cluster import ClusterService
from repro.errors import GPCError
from repro.gpc.engine import EngineConfig
from repro.graph.generators import social_network
from repro.obs import deadline_scope
from repro.server import HttpServiceClient, HttpServiceError, serve_background, wire
from repro.service import GraphService

CHEAP = "TRAIL (x:Person) -[:knows]-> (y:Person)"
OTHER = "TRAIL (x:Person) -[:lives_in]-> (c:City)"
COSTLY = "TRAIL (x:Person) -[:knows]->{1,4} (y:Person)"
SHORTEST = "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"
NEAREST = "SHORTEST (x:Person) -[:knows]->{1,3} (y:Person)"
ILL_TYPED = "TRAIL [ -[e]->{1,3} ] << e.k = 1 >>"
MALFORMED = "TRAIL (x:Person"
TINY = EngineConfig(max_intermediate_results=1)

FACADES = ("graph", "cluster-serial", "server")

#: Values that depend on the clock, on ids minted per run, or on which
#: worker took which shard: kept as a shape, not a value.
_MASKED_KEYS = {
    "latency", "shard_latency", "latency_histogram", "per_worker",
    "recent_trace_ids",
}
_MASKED_LINE = re.compile(
    r"(latency|_seconds|_s\b|_s\{|total_time|build_s|repro_traces_)"
)


def _graph():
    return social_network(num_people=12, friend_degree=2, seed=11)


def mask(value, key=None):
    """``value`` with every run-dependent part reduced to its shape."""
    if key == "per_worker":
        # Which workers took shards varies: keep one worker's key set.
        inner = next(iter(value.values()), {})
        return {"<keys>": sorted(inner)}
    if key in _MASKED_KEYS:
        if isinstance(value, dict):
            return {"<keys>": sorted(value)}
        return f"<{type(value).__name__}>"
    if isinstance(key, str) and key.endswith("_s"):
        return "<seconds>"
    if isinstance(value, dict):
        return {k: mask(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [mask(v) for v in value]
    return value


def mask_metrics(text: str) -> list[str]:
    """The exposition as a sorted line set, clock-dependent values and
    run-dependent label values blanked."""
    lines = set()
    for line in text.splitlines():
        line = re.sub(r'\{(worker|fingerprint)="[^"]*"\}', r"{\1=*}", line)
        if _MASKED_LINE.search(line) and not line.startswith("#"):
            line = line.rsplit(" ", 1)[0] + " *"
        lines.add(line)
    return sorted(lines)


def _kind(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except (GPCError, HttpServiceError) as exc:
        cause = exc.__cause__ if exc.__cause__ is not None else exc
        return type(cause).__name__
    return "ok"


def _in_process(service):
    """The script through a façade's own methods."""
    person = sorted(service.graph.nodes_with_label("Person"))
    city = next(iter(service.graph.nodes_with_label("City")))
    service.evaluate(CHEAP)                                  # miss
    service.evaluate(CHEAP)                                  # hit
    service.set_property(city, "mayor", "nobody")            # disjoint mutation
    service.evaluate(CHEAP)                                  # restamp
    service.evaluate(NEAREST)                                # miss
    service.add_edge("golden-edge", person[1], person[0], ["knows"])
    service.evaluate(CHEAP)                                  # extend
    service.evaluate(NEAREST)                                # invalidated
    service.evaluate(CHEAP, use_cache=False)                 # bypass
    kinds = [_kind(service.evaluate, COSTLY, TINY)]          # execute-step error
    with deadline_scope(1e-9):
        kinds.append(_kind(service.evaluate, SHORTEST))      # deadline
    kinds.append(_kind(service.evaluate, ILL_TYPED))         # the caller's: uncounted
    service.evaluate_batch([CHEAP, OTHER, ILL_TYPED], return_exceptions=True)
    codes = [[d.code for d in service.lint(q)] for q in (MALFORMED, CHEAP)]
    return {"kinds": kinds, "lint": codes}


def _over_http(client, graph):
    """The same script through the HTTP endpoints (the same elements:
    ids are taken from ``graph`` exactly as ``_in_process`` takes them)."""
    person = sorted(graph.nodes_with_label("Person"))
    city = next(iter(graph.nodes_with_label("City")))
    client.query(CHEAP)                                      # miss
    client.query(CHEAP)                                      # hit, not_modified
    client.mutate([{"op": "set_property", "element": wire.encode_id(city),
                    "key": "mayor", "value": "nobody"}])
    client.query(CHEAP)                                      # restamp, not_modified
    client.query(NEAREST)                                    # miss
    client.mutate([{"op": "add_edge", "key": "golden-edge",
                    "source": person[1].key, "target": person[0].key,
                    "labels": ["knows"]}])
    client.query(CHEAP)                                      # extend
    client.query(NEAREST)                                    # invalidated
    client.query(CHEAP, use_cache=False)                     # bypass
    kinds = [_kind(client.query, SHORTEST, deadline_ms=0.000001)]  # deadline → 504
    kinds.append(_kind(client.query, ILL_TYPED))             # 400, uncounted
    client.batch([CHEAP, OTHER, ILL_TYPED])
    codes = [[d["code"] for d in client.lint(q)["diagnostics"]]
             for q in (MALFORMED, CHEAP)]
    return {"kinds": kinds, "lint": codes}


def _surfaces(service, server=None):
    """``/stats``, ``/metrics`` and ``/insights`` as the façade shows them."""
    from repro.server import GraphServer

    probe = server or GraphServer(service, close_service=False)
    return {
        "stats": mask(service.stats.as_dict()),
        "insights": [mask(entry) for entry in
                     sorted(service.insights.top(limit=50), key=lambda e: e["query"])],
        "metrics": mask_metrics(probe._render_metrics().data.decode("utf-8")),
    }


def run(facade: str) -> dict:
    """Drive the script through ``facade`` and report what it observed."""
    if facade == "graph":
        with GraphService(_graph()) as service:
            return {"session": _in_process(service), **_surfaces(service)}
    if facade == "cluster-serial":
        with ClusterService(_graph(), backend="serial", num_workers=2) as service:
            return {"session": _in_process(service), **_surfaces(service)}
    service = GraphService(_graph())
    with serve_background(service) as handle:
        with HttpServiceClient(*handle.address) as client:
            session = _over_http(client, service.graph)
            report = {"session": session, **_surfaces(service, handle.server)}
            # What a client reads, as well as what the process holds.
            report["http_stats"] = mask(client.stats())
            report["http_insights"] = [
                mask(e) for e in sorted(client.insights(limit=50)["insights"],
                                        key=lambda e: e["query"])]
        return report


if __name__ == "__main__":
    print(json.dumps({facade: run(facade) for facade in FACADES},
                     indent=1, sort_keys=True))
