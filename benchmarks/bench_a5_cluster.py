"""Ablation A5 — sharded cluster serving vs single-service evaluation.

Design choice under study: scatter/gather evaluation over partitioned
seed spaces (:class:`repro.cluster.ClusterService`) versus evaluating
each query whole in one process (:class:`repro.service.GraphService`).

Two measurements:

- **equivalence**: on a mixed trail/simple/shortest/join workload,
  both backends — serial and process — return answers
  frozenset-identical to the single service. This is the soundness
  claim of the decomposition (disjoint seed cells union losslessly
  under GPC's set semantics) checked end to end.
- **speedup**: on a CPU-bound shortest/join workload whose register-NFA
  searches dominate (the natively sharded path), a 4-worker process
  backend must finish the warm repeated-query pass at least **2x**
  faster than the single service. Shard work conserves (the per-shard
  totals sum to the unsharded cost within noise), so the bound is
  essentially parallel efficiency >= 50% — the GIL keeps any
  in-process pool from getting there, which is exactly why the process
  backend is the one parallel lane. The speedup assertion needs real parallel hardware and is
  skipped below 4 usable CPUs (CI runners have 4).
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import Table, time_call
from repro.cluster import ClusterService
from repro.graph.generators import social_network
from repro.service import GraphService

#: Mixed workload for the cross-backend equivalence table.
VARIETY_WORKLOAD = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "SIMPLE (x:Person) ~[:married]~ (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), TRAIL (y:Person) -[:lives_in]-> (c:City)",
]

#: CPU-bound workload: per-start register searches dominate, which is
#: the work the seed partitioner divides across workers.
CPU_WORKLOAD = [
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "SHORTEST (x:Person) [-[:knows]-> -[:knows]->]{1,} (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person), TRAIL (y:Person) -[:lives_in]-> (c:City)",
]

PROCESS_WORKERS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def test_a5_backend_equivalence():
    """The serial and process backends both reproduce the single
    service's answers exactly, query by query."""
    graph = social_network(num_people=16, friend_degree=2, seed=3)
    single = GraphService(graph.copy())
    reference = {
        text: single.evaluate(text, use_cache=False)
        for text in VARIETY_WORKLOAD
    }
    single.close()

    table = Table(
        "A5: cross-backend answer equivalence (sharded vs single)",
        ["query", "answers", "serial ms", "process ms"],
    )
    timings: dict[str, dict[str, float]] = {t: {} for t in VARIETY_WORKLOAD}
    for backend in ("serial", "process"):
        with ClusterService(
            graph.copy(), backend=backend, num_workers=2
        ) as cluster:
            for text in VARIETY_WORKLOAD:
                result, elapsed = time_call(lambda t=text: cluster.evaluate(t))
                # The acceptance bar: set-identical answers per backend.
                assert result == reference[text], (
                    f"{backend} backend diverged on {text!r}"
                )
                timings[text][backend] = elapsed * 1000
    for text in VARIETY_WORKLOAD:
        table.add(
            text if len(text) <= 44 else text[:41] + "...",
            len(reference[text]),
            timings[text]["serial"],
            timings[text]["process"],
        )
    table.show()


def test_a5_process_speedup():
    """>= 2x wall clock over the single service at 4 process workers
    on the CPU-bound workload (warm pool, warm plans — the
    mutation-light serving regime the cluster targets)."""
    cpus = _usable_cpus()
    if cpus < PROCESS_WORKERS:
        pytest.skip(
            f"needs {PROCESS_WORKERS} usable CPUs for a meaningful "
            f"parallel speedup, found {cpus}"
        )
    graph = social_network(num_people=32, friend_degree=3, seed=13)

    single = GraphService(graph.copy())
    reference = {}
    for text in CPU_WORKLOAD:  # warm the plan cache, keep results
        reference[text] = single.evaluate(text, use_cache=False)
    single_times = {}
    for text in CPU_WORKLOAD:
        _, single_times[text] = time_call(
            lambda t=text: single.evaluate(t, use_cache=False)
        )
    single_s = sum(single_times.values())
    single.close()

    table = Table(
        "A5: CPU-bound workload — single service vs 4-worker process pool",
        ["query", "answers", "single ms", "process ms", "speedup"],
    )
    with ClusterService(
        graph.copy(), backend="process", num_workers=PROCESS_WORKERS
    ) as cluster:
        for text in CPU_WORKLOAD:  # warm-up: ships snapshot, compiles plans
            assert cluster.evaluate(text, use_cache=False) == reference[text]
        process_times = {}
        for text in CPU_WORKLOAD:
            # use_cache=False: measure sharded evaluation itself, not
            # the service-level result cache (both sides bypass it).
            result, elapsed = time_call(
                lambda t=text: cluster.evaluate(t, use_cache=False)
            )
            assert result == reference[text]
            process_times[text] = elapsed
        process_s = sum(process_times.values())
        for text in CPU_WORKLOAD:
            table.add(
                text if len(text) <= 44 else text[:41] + "...",
                len(reference[text]),
                single_times[text] * 1000,
                process_times[text] * 1000,
                f"{single_times[text] / process_times[text]:.1f}x",
            )
        workers_seen = len(cluster.stats.per_worker)
        shipped = cluster.stats.snapshots_shipped
    table.add("TOTAL", "-", single_s * 1000, process_s * 1000,
              f"{single_s / process_s:.1f}x")
    table.show()
    print(
        f"workers observed: {workers_seen}, snapshots shipped: {shipped}, "
        f"usable cpus: {cpus}"
    )
    assert shipped == 1, "snapshot must ship once for the whole warm run"
    # Acceptance criterion: >= 2x wall clock at 4 process workers.
    assert single_s >= 2 * process_s, (
        f"process backend only {single_s / process_s:.2f}x faster "
        f"({single_s * 1000:.0f}ms vs {process_s * 1000:.0f}ms)"
    )
