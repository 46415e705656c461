"""``trail`` / ``simple`` as a walk of the register run.

Every restrictor spelling whose pattern the register compiler accepts
runs the ``shortest`` witness DFS in walk mode: seeded by the planner,
honouring the start restriction, probing pushed atoms and label-filtered
rows, with a used-edge (``trail``) or used-node (``simple``) set that
grows and shrinks with the walk. What it returns must be the paper's
Section 5 semantics on the plain graph (:func:`reference.reference_answers`:
the bounded denotation at ``|E|`` / ``|N|``, filtered) — on a snapshot
and on derived ones, with and without a start restriction, and served
through :class:`GraphService` and :class:`ClusterService` across writes.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import assert_equal_reference, mutate, random_graph, reference_answers
from repro.cluster import ClusterService
from repro.errors import DeadlineExceededError, EvaluationLimitError
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_query
from repro.gpc.semantics import _Limits
from repro.graph.generators import transport_network
from repro.graph.ids import DirectedEdgeId
from repro.obs import deadline_scope
from repro.obs.counters import EvalCounters, use_counters
from repro.service import GraphService, PreparedQuery

RESTRICTORS = ("TRAIL", "SIMPLE", "SHORTEST TRAIL", "SHORTEST SIMPLE")

#: Single hops, ``{1,4}`` and ``{1,}``: undirected steps (the graphs
#: carry an undirected self-loop), backward steps, pushed node and edge
#: atoms, a two-variable check, a repeated variable, group variables,
#: and a repeat body that binds a variable and may match an edgeless
#: path (GPC022: its walks go to the span matcher).
SHAPES = (
    "(x) -[e:r]-> (y)",
    "(x) ~[e]~ (y)",
    "(x:P) <-[:s]- (y)",
    "[(x) -[e:r]-> (y)] << e.w = 1 >>",
    "(x) -[e]-> () <-[e]- (y)",
    "(x) -> (y) -> (x)",
    "(x) -[:r]->{1,4} (y)",
    "(x) -[e]->{1,4} (y:Q)",
    "[(x) [-> + <-]{1,4} (y)] << x.k = y.k >>",
    "(x) [(z:P) -[:r]->{0,1}]{1,3} (y)",
    "(x:P) -[:r]->{1,} (y:Q)",
    "[(x) [-[:r]-> + ~[:m]~]{1,} (y)] << x.k = 1 >>",
    "(x) [-[f:s]-> (m)]{1,} (y)",
)

#: Examples whose *reference* outgrows this are skipped: the bounded
#: denotation at ``|E|`` enumerates every walk, not just the trails.
_ORACLE = _Limits(max_intermediate_results=20_000)


def _graph(seed: int):
    """A :func:`random_graph` with an undirected self-loop."""
    graph = random_graph(random.Random(seed))
    node = min(graph.nodes)
    graph.add_undirected_edge("loop", node, node, labels=("m",))
    return graph


def _reference(graph, query):
    try:
        return reference_answers(graph, query, graph.num_edges, limits=_ORACLE)
    except EvaluationLimitError:
        return None


def _assert_walks_equal_reference(graph, query, rng) -> bool:
    reference = _reference(graph, query)
    if reference is None:
        return False
    views = {
        "snapshot": (graph.snapshot(), None),
        "no planner": (graph.snapshot(), EngineConfig(use_planner=False)),
        "no pushdown": (graph.snapshot(), EngineConfig(use_pushdown=False)),
    }
    nodes = sorted(graph.nodes)
    restriction = frozenset(rng.sample(nodes, rng.randrange(len(nodes) + 1)))
    # A runaway walk fails the test instead of hanging it.
    with deadline_scope(5.0):
        for cut in (None, restriction):
            assert_equal_reference(reference, query, views, graph.num_edges, cut)
    return True


@pytest.mark.parametrize("restrictor", RESTRICTORS)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(SHAPES),
)
@settings(max_examples=25, deadline=None)
def test_walks_equal_the_reference(restrictor, seed, shape):
    rng = random.Random(seed)
    graph = _graph(seed)
    query = parse_query(f"{restrictor} {shape}")
    _assert_walks_equal_reference(graph, query, rng)
    # Derived snapshots: patched rows, masks and overlay elements.
    graph.snapshot()
    for _ in range(3):
        mutate(rng, graph)
    _assert_walks_equal_reference(graph, query, rng)


@pytest.mark.parametrize("restrictor", RESTRICTORS)
def test_every_shape_is_compared_somewhere(restrictor):
    # The oracle skips what it cannot afford; on a small graph it
    # affords every shape, so none is skipped for good.
    for shape in SHAPES:
        query = parse_query(f"{restrictor} {shape}")
        assert _assert_walks_equal_reference(_graph(68), query, random.Random(68))


@pytest.mark.parametrize("facade", ["graph", "serial", "process"])
def test_served_walks_equal_the_reference_across_writes(facade):
    graph = _graph(68)
    service = (
        GraphService(graph)
        if facade == "graph"
        else ClusterService(graph, backend=facade, num_workers=2)
    )
    texts = [
        f"{restrictor} {shape}"
        for restrictor in RESTRICTORS
        for shape in (SHAPES[0], SHAPES[6], SHAPES[10], SHAPES[12])
    ]
    half = frozenset(sorted(graph.nodes)[::2])

    def check():
        for text in texts:
            reference = _reference(service.graph, parse_query(text))
            assert reference is not None, text
            assert set(service.evaluate(text, use_cache=False)) == reference, text
            restricted = PreparedQuery(text).execute(
                service.graph, start_restriction=half
            )
            assert set(restricted) == {
                a for a in reference if a.paths[0].src in half
            }, text

    nodes = sorted(graph.nodes)
    with service:
        check()
        service.add_edge("walk-new", nodes[-1], nodes[0], ["r"], {"w": 1})
        check()
        service.remove_edge(DirectedEdgeId("walk-new"))
        service.remove_edge(min(service.graph.directed_edges))
        check()


class TestTheWalkIsTheRoute:
    def test_counters_count_one_witness_per_answer(self):
        graph = _graph(5)
        query = parse_query("TRAIL (x) -[e:r]->{1,4} (y)")
        counters = EvalCounters()
        with use_counters(counters):
            answers = Evaluator(graph).evaluate(query)
        assert answers
        assert counters.witnesses == len(answers)
        assert counters.witness_steps >= len(answers)

    def test_the_explain_names_the_walk(self):
        service = GraphService(_graph(5))
        assert "register-NFA trail walk" in service.explain("TRAIL (x) -> (y)")
        assert "register-NFA simple walk" in service.explain(
            "SHORTEST SIMPLE (x) ->{1,} (y)"
        )

    def test_answers_past_the_budget_raise(self):
        graph = transport_network(3, 4)
        tiny = EngineConfig(max_intermediate_results=10)
        with pytest.raises(EvaluationLimitError, match="intermediate result"):
            Evaluator(graph, tiny).evaluate(parse_query("TRAIL (x) -[:link]->{1,} (y)"))

    def test_a_deadline_stops_the_walk(self):
        service = GraphService(transport_network(4, 4))
        started = time.monotonic()
        with deadline_scope(0.2), pytest.raises(DeadlineExceededError):
            service.evaluate("TRAIL (x) -[:link]->{1,} (y)")
        assert time.monotonic() - started < 2.0
