"""Ablation A11 — predicate pushdown.

Design choice under study: lifting single-variable ``x.key = const``
condition atoms out of end-of-run ``_Check`` evaluation and into the
bind/step sites of the register search (tested against per-(key,
const) bitmask indexes) — which also frees the search from carrying
the variable's register.

One measurement on one 10k-node graph — the A9 segmented ring + chords
topology, with a node property ``k`` that is 1 exactly on each
segment's second node:

- **condition-heavy shortest**: ``<< m.k = 1 >>`` over a mid-pattern
  variable. Unpushed, every chord branch survives until the final
  check; pushed, the bitmask kills it at the bind site. Asserted:
  >= 2x pushdown-on vs pushdown-off, identical answer frozensets.

``use_pushdown`` used to select a search lane as well, and a second
measurement compared the two lanes on a register-free RPQ. There is one
lane now (PR 17); its absolute numbers are ``class.rpq_flat`` and
``class.twovar_dense`` in ``benchmarks/layers``.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import Table, emit_json, time_call
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_query
from repro.graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot

N = 10_000
SEG = 250
CHORDS = 16
COND_QUERY = (
    "SHORTEST [(x:Probe) -> (m) -[:next]->{1,} (y:Adj)] << m.k = 1 >>"
)

PUSH_ON = EngineConfig(use_pushdown=True)
PUSH_OFF = EngineConfig(use_pushdown=False)


@pytest.fixture(scope="module")
def snapshot() -> GraphSnapshot:
    rng = random.Random(11)
    graph = PropertyGraph()
    handles = []
    for i in range(N):
        labels = []
        if i % SEG == 0:
            labels.append("Probe")
        if i % SEG == 6:
            labels.append("Adj")
        # k = 1 exactly on each segment's second node: the only first
        # hop from a Probe that the pushed condition lets live.
        handles.append(
            graph.add_node(f"n{i}", labels, {"k": 1 if i % SEG == 1 else 0})
        )
    for i in range(N - 1):
        if (i + 1) % SEG != 0:
            graph.add_edge(f"next{i}", handles[i], handles[i + 1], ["next"])
    for i in range(N):
        for c in range(CHORDS):
            graph.add_edge(
                f"c{i}_{c}", handles[i], handles[rng.randrange(N)], ["chord"]
            )
    return GraphSnapshot(graph)


def _best_of(fn, repeats: int = 3) -> tuple[object, float]:
    result, best = fn(), float("inf")
    for _ in range(repeats):
        _, elapsed = time_call(fn)
        best = min(best, elapsed)
    return result, best


def test_a11_condition_pushdown_speedup(snapshot):
    query = parse_query(COND_QUERY)

    pushed_answers, pushed_s = _best_of(
        lambda: Evaluator(snapshot, PUSH_ON).evaluate(query)
    )
    unpushed_answers, unpushed_s = _best_of(
        lambda: Evaluator(snapshot, PUSH_OFF).evaluate(query)
    )
    assert pushed_answers == unpushed_answers
    assert len(pushed_answers) >= N // SEG  # every in-segment witness

    speedup = unpushed_s / pushed_s
    table = Table(
        "A11: condition-heavy SHORTEST (<< m.k = 1 >> mid-pattern)",
        ["plan", "ms / query"],
    )
    table.add("check at accept (pushdown off)", unpushed_s * 1000)
    table.add("bitmask at bind (pushdown on)", pushed_s * 1000)
    table.show()
    emit_json(
        "a11_pushdown_condition",
        {
            "nodes": N,
            "unpushed_ms": unpushed_s * 1000,
            "pushed_ms": pushed_s * 1000,
            "speedup": speedup,
        },
    )
    # Acceptance criterion: >= 2x on the condition-heavy workload.
    assert speedup >= 2, f"pushdown only {speedup:.2f}x vs check-at-accept"
