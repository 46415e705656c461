"""Metric names, units and bounds — what ``BENCHMARK.json`` declares —
and the assembly of one run's per-layer numbers.

Aggregation over a workload's read classes: a *time* is the mean over
classes of the per-class median (ms per op at equal class weights); a
*count* is the sum over classes (exact work per schedule round). A
layer the workload never enters reports 0. Every time is at the
reference machine speed (see :mod:`layersbench.probe`);
``host.speed_factor`` is what the served window's times were divided by.
"""

from __future__ import annotations

from layersbench.replay import GAP_LIMIT, Replayer
from layersbench.spans import mean
from layersbench.workloads import ALL_CLASSES, Workload

#: name -> (unit, better, bound). The bounds are three times the widest
#: quartile spread seen over ten seeds on a shared 2-core sandbox (see
#: README.md, "Repeatability"), capped at the 0.25 the contract allows.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "query_p50_ms": ("ms", "lower", 0.25),
    "query_p90_ms": ("ms", "lower", 0.25),
    "throughput_ops": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: name -> (unit, better)
PER_LAYER = {
    "host.speed_factor": ("ratio", "lower"),
    "server.app.overhead_ms": ("ms", "lower"),
    "server.app.loaded_p50_ms": ("ms", "lower"),
    "server.app.query_p99_ms": ("ms", "lower"),
    "server.app.cpu_ms_per_op": ("ms", "lower"),
    "server.app.avg_batch": ("count", "higher"),
    "server.app.rejected": ("count", "lower"),
    "server.app.mutate_p50_ms": ("ms", "lower"),
    "server.protocol.parse_us": ("us", "lower"),
    "server.protocol.render_us": ("us", "lower"),
    "server.wire.encode_ms": ("ms", "lower"),
    "server.wire.bytes_per_answer": ("bytes", "lower"),
    "server.wire.answers_per_op": ("count", "higher"),
    "server.client.decode_ms": ("ms", "lower"),
    "service.cache.hit_rate": ("ratio", "higher"),
    "service.cache.restamps": ("count", "higher"),
    "service.cache.invalidations": ("count", "lower"),
    "service.cache.evictions": ("count", "lower"),
    "service.cache.plan_evictions": ("count", "lower"),
    "service.cache.hit_us": ("us", "lower"),
    "service.prepared.prepare_ms": ("ms", "lower"),
    "gpc.parser.parse_us": ("us", "lower"),
    "gpc.typing.infer_us": ("us", "lower"),
    "gpc.analysis.analyze_us": ("us", "lower"),
    "gpc.planner.plan_us": ("us", "lower"),
    "gpc.register_nfa.compile_us": ("us", "lower"),
    "gpc.register_nfa.lower_ms": ("ms", "lower"),
    "gpc.register_nfa.search_ms": ("ms", "lower"),
    "gpc.register_nfa.witness_ms": ("ms", "lower"),
    "gpc.register_nfa.flat_share": ("ratio", "higher"),
    "gpc.register_nfa.seeds": ("count", "lower"),
    "gpc.register_nfa.pairs": ("count", "lower"),
    "gpc.register_nfa.witnesses": ("count", "lower"),
    "gpc.register_nfa.states_expanded": ("count", "lower"),
    "gpc.register_nfa.transitions": ("count", "lower"),
    "gpc.register_nfa.mask_probes": ("count", "lower"),
    "enumeration.span_matcher.match_ms": ("ms", "lower"),
    "enumeration.span_matcher.matches_per_witness": ("ratio", "higher"),
    "gpc.semantics.bounded_ms": ("ms", "lower"),
    "gpc.semantics.matches_per_answer": ("ratio", "lower"),
    "gpc.engine.eval_ms": ("ms", "lower"),
    "gpc.engine.join_ms": ("ms", "lower"),
    "gpc.engine.join_probe_rows": ("count", "lower"),
    "gpc.engine.condition_evals": ("count", "lower"),
    "gpc.engine.replay_gap": ("ratio", "lower"),
    "graph.snapshot.build_ms": ("ms", "lower"),
    "graph.snapshot.derive_ms": ("ms", "lower"),
    "graph.snapshot.csr_rows_patched": ("count", "lower"),
    "graph.columns.mask_build_ms": ("ms", "lower"),
    "graph.property_graph.mutate_us": ("us", "lower"),
    "cluster.service.eval_ms": ("ms", "lower"),
    **{f"class.{name}.p50_ms": ("ms", "lower") for name in ALL_CLASSES},
}


def benchmark_json(workloads: dict[str, Workload], run_seconds: int) -> dict:
    """The contents of ``BENCHMARK.json`` (a self-test keeps the
    committed file equal to this)."""
    return {
        "command": ["python3", "benchmarks/layers/run.py"],
        "paths": ["benchmarks/layers"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }


def per_layer(workload: Workload, served: dict, replayer: Replayer) -> dict[str, float]:
    """Every declared per-layer metric for one traced run."""
    classes = [replayer.classes[name] for name in workload.classes]
    service = replayer.passes["service"]

    def time_of(pick) -> float:
        return mean([pick(c) for c in classes])

    def count_of(key: str) -> int:
        return sum(c.counts.get(key, 0) for c in classes)

    def stage(name: str) -> float:
        return time_of(lambda c: c.stages.get(name, 0.0))

    answers = sum(c.answers for c in classes)
    body_bytes = sum(c.wire.get("body_bytes", 0) for c in classes)
    seeds, witnesses = count_of("seeds"), count_of("witnesses")
    kept = count_of("bounded_kept")
    class_p50 = served["class_p50_ms"]
    # What the HTTP path adds to a class: its end-to-end median minus
    # the same ops through an in-process GraphService, minus the wire,
    # protocol and client work timed on the class's own bytes.
    overhead = [
        class_p50[c.name]
        - service["class_ms"].get(c.name, 0.0)
        - c.wire.get("encode_ms", 0.0)
        - c.wire.get("decode_ms", 0.0)
        - (c.wire.get("parse_us", 0.0) + c.wire.get("render_us", 0.0)) / 1e3
        for c in classes
    ]
    steady_lower = {c.name: c.stages.get("gpc.register_nfa.lower", 0.0) for c in classes}
    out = {
        **served["served_layers"],
        "server.app.overhead_ms": mean(overhead),
        "server.protocol.parse_us": time_of(lambda c: c.wire.get("parse_us", 0.0)),
        "server.protocol.render_us": time_of(lambda c: c.wire.get("render_us", 0.0)),
        "server.wire.encode_ms": time_of(lambda c: c.wire.get("encode_ms", 0.0)),
        "server.wire.bytes_per_answer": body_bytes / answers if answers else 0.0,
        "server.wire.answers_per_op": answers / len(classes),
        "server.client.decode_ms": time_of(lambda c: c.wire.get("decode_ms", 0.0)),
        "service.cache.hit_us": service["hit_us"],
        "service.prepared.prepare_ms": time_of(lambda c: c.prepare.get("prepare_ms", 0.0)),
        "gpc.parser.parse_us": time_of(lambda c: c.prepare.get("parse_us", 0.0)),
        "gpc.typing.infer_us": time_of(lambda c: c.prepare.get("infer_us", 0.0)),
        "gpc.analysis.analyze_us": time_of(lambda c: c.prepare.get("analyze_us", 0.0)),
        "gpc.planner.plan_us": time_of(lambda c: c.prepare.get("plan_us", 0.0)),
        "gpc.register_nfa.compile_us": time_of(lambda c: c.prepare.get("compile_us", 0.0)),
        "gpc.register_nfa.lower_ms": stage("gpc.register_nfa.lower"),
        "gpc.register_nfa.search_ms": stage("gpc.register_nfa.search"),
        "gpc.register_nfa.witness_ms": stage("gpc.register_nfa.witness"),
        "gpc.register_nfa.flat_share": count_of("flat_seeds") / seeds if seeds else 0.0,
        "gpc.register_nfa.seeds": seeds,
        "gpc.register_nfa.pairs": count_of("pairs"),
        "gpc.register_nfa.witnesses": witnesses,
        "gpc.register_nfa.states_expanded": count_of("states_expanded"),
        "gpc.register_nfa.transitions": count_of("transitions"),
        "gpc.register_nfa.mask_probes": count_of("mask_probes"),
        "enumeration.span_matcher.match_ms": stage("enumeration.span_matcher.match"),
        "enumeration.span_matcher.matches_per_witness": (
            count_of("matches") / witnesses if witnesses else 0.0
        ),
        "gpc.semantics.bounded_ms": stage("gpc.semantics.bounded"),
        "gpc.semantics.matches_per_answer": (
            count_of("bounded_examined") / kept if kept else 0.0
        ),
        "gpc.engine.eval_ms": time_of(lambda c: c.eval_ms),
        "gpc.engine.join_ms": time_of(lambda c: c.join_ms),
        "gpc.engine.join_probe_rows": count_of("join_probe_rows"),
        "gpc.engine.condition_evals": count_of("condition_evals"),
        "gpc.engine.replay_gap": max(c.gap for c in classes),
        "graph.snapshot.build_ms": replayer.snapshot_build_ms,
        "graph.snapshot.derive_ms": service["derive_ms"],
        "graph.columns.mask_build_ms": sum(
            max(0.0, c.first_lower_ms - steady_lower[c.name]) for c in classes
        ),
        "graph.property_graph.mutate_us": service["mutate_us"],
        "cluster.service.eval_ms": replayer.passes["cluster_eval_ms"],
        **{f"class.{name}.p50_ms": class_p50.get(name, 0.0) for name in ALL_CLASSES},
    }
    missing = set(PER_LAYER) - set(out)
    if missing or set(out) - set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(missing)}")
    return {name: float(out[name]) for name in PER_LAYER}


def unresolved_classes(replayer: Replayer) -> list[str]:
    """Classes whose staged replay strays too far from the un-staged
    run for their layer numbers to be trusted."""
    return [
        f"{c.name}: replay gap {c.gap:.2f}" if c.stages else f"{c.name}: not staged"
        for c in replayer.classes.values()
        if c.gap > GAP_LIMIT or not c.stages
    ]
