"""Differential equivalence: predicate pushdown on vs off vs the
specification.

Pushdown rewrites condition-bearing ``shortest`` plans — atoms lifted
to bind/step sites, bitmask probes, fewer registers for the search to
carry — and every rewrite must be answer-preserving. Random graphs and
mutation chains are generated from a hypothesis-drawn seed; each query
runs with pushdown on (masks, register-free where nothing else reads a
variable) and off (residual checks, their variables tracked), on a
rebuilt snapshot and on the graph's own (derived) one, and every answer
set is compared with the paper's Section 5 semantics on the plain
graph (:mod:`reference`) for exact equality.

The mutation chains matter: ``derive`` patches masked rows copy-on-
write, so stale bitmask bits would surface here as a divergence from
the reference.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    assert_equal_reference,
    mutate,
    random_graph,
    reference_answers,
)
from repro.gpc.engine import EngineConfig
from repro.gpc.parser import parse_query
from repro.graph import GraphSnapshot, PropertyGraph

#: Condition-bearing and register-free shapes: pushable single-variable
#: atoms (on nodes and edges, at bind sites and step sites), residues
#: the pushdown must keep (two-variable, repeat-scoped, negated),
#: unions, undirected steps, and pure RPQs whose search tracks nothing.
QUERY_TEXTS = (
    "SHORTEST [(x:P) -> (m) ->{1,} (y)] << m.k = 1 >>",
    "SHORTEST [(x) -[e:r]-> (y)] << e.w = 1 >>",
    "SHORTEST [(x:P) -[:r]->{1,} (y)] << x.k = 0 >>",
    "SHORTEST [(x) -> (m) -> (y)] << m.k = 1 AND x.k = 2 >>",
    "SHORTEST [(x) -> (y)] << x.k = y.k >>",
    "SHORTEST [(x) ->{0,2} (y:Q)] << y.k = 2 >>",
    "SHORTEST [(x:P) -[:r]-> (m) + (x:P) -[:s]-> (m)] << m.k = 1 >>",
    "SHORTEST [(x) ~[:m]~ (y)] << y.k = 0 >>",
    "SHORTEST [(x) -> (m) ->{1,} (y)] << NOT m.k = 1 >>",
    "SHORTEST (x:P) -[:r]->{1,} (y:Q)",
    "SHORTEST (x) ->{1,3} (y:P)",
)
QUERIES = tuple(parse_query(text) for text in QUERY_TEXTS)

PUSH_ON = EngineConfig(use_pushdown=True)
PUSH_OFF = EngineConfig(use_pushdown=False)

#: ``shortest`` pairs further apart than this are outside the bounded
#: reference (and outside the comparison).
HORIZON = 4


def assert_matches_reference(graph: PropertyGraph) -> None:
    rebuilt = GraphSnapshot(graph)
    views = {
        "rebuilt, pushdown on": (rebuilt, PUSH_ON),
        "rebuilt, pushdown off": (rebuilt, PUSH_OFF),
        "snapshot, pushdown on": (graph.snapshot(), PUSH_ON),
        "snapshot, pushdown off": (graph.snapshot(), PUSH_OFF),
    }
    for query in QUERIES:
        reference = reference_answers(graph, query, HORIZON)
        assert_equal_reference(reference, query, views, HORIZON)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_pushdown_matches_on_static_snapshots(seed):
    rng = random.Random(seed)
    assert_matches_reference(random_graph(rng))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_pushdown_matches_across_mutation_chains(seed):
    """Derived snapshots patch cached masks copy-on-write; answers
    must stay equal to the reference after chains that rewrite masked
    rows."""
    rng = random.Random(seed)
    graph = random_graph(rng)
    graph.snapshot()  # force the derive path for later versions
    for _ in range(rng.randrange(1, 6)):
        mutate(rng, graph)
        assert_matches_reference(graph)
