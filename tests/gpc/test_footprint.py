"""QueryFootprint derivation and its soundness against delta summaries.

The contract under test: ``footprint.affected_by(summary) is False``
must imply the query's answers are identical before and after the
mutations the summary fingerprints. The randomized suite checks that
implication directly against the engine.
"""

from __future__ import annotations

import random

import pytest

from repro.extensions import ArithConditioned, PropertyTerm, TermConst
from repro.gpc import ast
from repro.gpc.conditions_ast import PropertyEqualsConst
from repro.gpc.engine import Evaluator
from repro.gpc.footprint import (
    BOTTOM,
    QueryFootprint,
    pattern_footprint,
    query_footprint,
)
from repro.gpc.parser import parse_query
from repro.graph.delta import DeltaSummary, summarize_deltas
from repro.graph.property_graph import PropertyGraph
from repro.service.cache import extension_seeds


def fp(text: str) -> QueryFootprint:
    return query_footprint(parse_query(text))


class TestDerivation:
    def test_labelled_edge_query(self):
        footprint = fp("TRAIL (x:Person) -[e:knows]-> (y:Person)")
        # min length 1 => node mutations alone can never matter.
        assert footprint.node_labels == frozenset()
        assert footprint.dedge_labels == {"knows"}
        assert footprint.uedge_labels == frozenset()
        assert footprint.node_keys == footprint.edge_keys == frozenset()

    def test_single_node_query_reads_its_label(self):
        footprint = fp("TRAIL (x:Person)")
        assert footprint.node_labels == {"Person"}
        assert footprint.dedge_labels == frozenset()

    def test_unlabelled_patterns_read_whole_classes(self):
        footprint = fp("SIMPLE (x) ->{1,} (y)")
        assert footprint.node_labels == frozenset()  # min length 1
        assert footprint.dedge_labels is None
        footprint = fp("TRAIL (x)")
        assert footprint.node_labels is None

    def test_backward_edges_read_directed_class(self):
        footprint = fp("TRAIL (x) <-[:knows]- (y)")
        assert footprint.dedge_labels == {"knows"}
        assert footprint.uedge_labels == frozenset()

    def test_undirected_edges_read_undirected_class(self):
        footprint = fp("TRAIL (x) ~[:married]~ (y)")
        assert footprint.uedge_labels == {"married"}
        assert footprint.dedge_labels == frozenset()

    def test_conditions_contribute_property_keys(self):
        footprint = fp(
            "p = TRAIL [ (x:A) -[e:r]-> (y:B) ] << x.team = y.team >>"
        )
        assert footprint.node_keys == {"team"}
        assert footprint.edge_keys == frozenset()
        footprint = fp("TRAIL [ (x:A) ] << x.a = 1 >>")
        assert footprint.node_keys == {"a"}
        assert footprint.edge_keys == frozenset()

    def test_condition_keys_split_by_variable_class(self):
        footprint = fp("TRAIL [ (x:A) -[e:r]-> (y:B) ] << x.team = 1 >>")
        assert footprint.node_keys == {"team"}
        assert footprint.edge_keys == frozenset()
        footprint = fp("TRAIL [ (x:A) -[e:r]-> (y:B) ] << e.w = 1 >>")
        assert footprint.node_keys == frozenset()
        assert footprint.edge_keys == {"w"}

    def test_cross_class_comparison_splits_sides(self):
        footprint = fp(
            "p = TRAIL [ (x:A) -[e:r]-> (y:B) ] << x.cost = e.cost >>"
        )
        assert footprint.node_keys == {"cost"}
        assert footprint.edge_keys == {"cost"}

    def test_unknown_variable_keys_land_in_both_classes(self):
        # A condition over a variable the pattern never binds: no class
        # can be proven, so the key must guard both.
        condition = PropertyEqualsConst("ghost", "k", 1)
        pattern = ast.Conditioned(ast.node("x", "A"), condition)
        footprint = pattern_footprint(pattern)
        assert footprint.node_keys == {"k"}
        assert footprint.edge_keys == {"k"}

    def test_zero_repetition_reads_all_nodes(self):
        footprint = fp("SHORTEST (x:A) ->{0,3} (y:B)")
        assert footprint.node_labels is None  # {0,..} matches any node

    def test_join_merges_sides(self):
        footprint = fp("TRAIL (a:A) -[:r]-> (b), TRAIL (b) ~[:m]~ (c)")
        assert footprint.dedge_labels == {"r"}
        assert footprint.uedge_labels == {"m"}

    def test_union_merges_branches(self):
        footprint = fp("SIMPLE (x:P) + [(y:Q) -[:r]-> (z:Q)]")
        assert footprint.node_labels == {"P", "Q"}
        assert footprint.dedge_labels == {"r"}

    def test_extension_patterns_collapse_to_bottom(self):
        pattern = ArithConditioned(
            ast.forward("e", "r"),
            left=PropertyTerm("e", "w"),
            right=TermConst(1),
        )
        assert pattern_footprint(pattern).is_bottom
        query = ast.PatternQuery(ast.Restrictor.TRAIL, pattern)
        assert query_footprint(query).is_bottom

    def test_non_query_input_is_bottom(self):
        assert query_footprint(object()) is BOTTOM


class TestAffectedBy:
    summary_knows = DeltaSummary(
        dedges_changed=True, dedge_labels=frozenset({"knows"})
    )
    summary_node_p = DeltaSummary(
        nodes_changed=True, node_labels=frozenset({"P"})
    )
    summary_props = DeltaSummary(node_property_keys=frozenset({"age"}))

    def test_disjoint_labels_do_not_affect(self):
        footprint = fp("TRAIL (x) -[:likes]-> (y)")
        assert not footprint.affected_by(self.summary_knows)
        assert not footprint.affected_by(self.summary_node_p)
        assert not footprint.affected_by(self.summary_props)

    def test_intersecting_labels_affect(self):
        footprint = fp("TRAIL (x) -[:knows]-> (y)")
        assert footprint.affected_by(self.summary_knows)

    def test_unbounded_class_affected_by_any_change_in_class(self):
        footprint = fp("TRAIL (x) -> (y)")
        assert footprint.affected_by(self.summary_knows)
        unlabelled = DeltaSummary(dedges_changed=True)
        assert footprint.affected_by(unlabelled)

    def test_bottom_affected_by_everything(self):
        assert BOTTOM.affected_by(self.summary_props)
        assert BOTTOM.affected_by(self.summary_node_p)

    def test_empty_summary_affects_nothing(self):
        assert not BOTTOM.affected_by(DeltaSummary())

    def test_property_keys_matter_only_when_read(self):
        reader = fp("TRAIL [ (x:P) ] << x.age = 3 >>")
        assert reader.affected_by(self.summary_props)
        other = fp("TRAIL [ (x:P) ] << x.name = 'a' >>")
        assert not other.affected_by(self.summary_props)

    def test_property_keys_do_not_cross_element_classes(self):
        # Same key, different class: an edge-property mutation cannot
        # invalidate a query that only reads the key off nodes.
        node_reader = fp("TRAIL [ (x:P) -[e:r]-> (y) ] << x.age = 3 >>")
        edge_summary = DeltaSummary(edge_property_keys=frozenset({"age"}))
        assert not node_reader.affected_by(edge_summary)
        node_summary = DeltaSummary(node_property_keys=frozenset({"age"}))
        assert node_reader.affected_by(node_summary)

        edge_reader = fp("TRAIL [ (x:P) -[e:r]-> (y) ] << e.age = 3 >>")
        assert edge_reader.affected_by(edge_summary)
        assert not edge_reader.affected_by(node_summary)


# ---------------------------------------------------------------------------
# Randomized soundness: disjoint footprint => identical answers
# ---------------------------------------------------------------------------

SOUNDNESS_QUERIES = [
    "TRAIL (x:P) -[e:r]-> (y:P)",
    "TRAIL (x:P)",
    "TRAIL (x)",
    "SIMPLE (x) ~[:m]~ (y)",
    "SHORTEST (x:P) -[:r]->{1,3} (y)",
    "TRAIL [ (x:P) -[e:r]-> (y:P) ] << x.k = 1 >>",
    "TRAIL (a:P) -[:r]-> (b), TRAIL (b:P) -[:s]-> (c)",
    "SIMPLE (x:Q) + [(y:P) -[:r]-> (z)]",
]


def _random_mutation(rng: random.Random, graph: PropertyGraph) -> None:
    nodes = sorted(graph.nodes)
    op = rng.randrange(6)
    if op == 0:
        graph.add_node(
            f"n{graph.version}",
            labels=rng.choice([(), ("P",), ("Q",)]),
            properties=rng.choice([None, {"k": 1}]),
        )
    elif op == 1:
        graph.add_edge(
            f"e{graph.version}",
            rng.choice(nodes),
            rng.choice(nodes),
            labels=rng.choice([(), ("r",), ("s",)]),
        )
    elif op == 2:
        graph.add_undirected_edge(
            f"u{graph.version}",
            rng.choice(nodes),
            rng.choice(nodes),
            labels=rng.choice([(), ("m",)]),
        )
    elif op == 3:
        graph.set_property(
            rng.choice(nodes), rng.choice(["k", "z"]), rng.randrange(3)
        )
    elif op == 4:
        edges = sorted(graph.directed_edges)
        if edges:
            graph.remove_edge(rng.choice(edges))
    else:
        if len(nodes) > 3:
            graph.remove_node(rng.choice(nodes))


def _soundness_graph(rng: random.Random) -> PropertyGraph:
    graph = PropertyGraph()
    for i in range(6):
        graph.add_node(f"b{i}", labels=("P",) if i % 2 else ("Q",),
                       properties={"k": i % 2})
    nodes = sorted(graph.nodes)
    for i in range(6):
        graph.add_edge(f"be{i}", rng.choice(nodes), rng.choice(nodes),
                       labels=("r",) if i % 2 else ("s",))
    graph.add_undirected_edge("bu", nodes[0], nodes[1], labels=("m",))
    return graph


@pytest.mark.parametrize("seed", range(12))
def test_disjoint_footprint_implies_equal_answers(seed):
    """The invariant the semantic cache relies on, checked end to end:
    if the footprint does not intersect the mutation summary, the
    answer sets before and after must be frozenset-identical."""
    rng = random.Random(seed)
    graph = _soundness_graph(rng)

    queries = [parse_query(text) for text in SOUNDNESS_QUERIES]
    footprints = [query_footprint(query) for query in queries]
    before = [Evaluator(graph).evaluate(query) for query in queries]

    for _ in range(15):
        start = graph.version
        _random_mutation(rng, graph)
        summary = summarize_deltas(graph.deltas_since(start))
        after = [Evaluator(graph).evaluate(query) for query in queries]
        for query, footprint, old, new in zip(
            queries, footprints, before, after
        ):
            if not footprint.affected_by(summary):
                assert old == new, (
                    f"footprint claimed {query} unaffected by "
                    f"{summary.describe()} but answers changed"
                )
        before = after


#: Bounded path-local queries whose seeds reach more than zero hops.
EXTENSION_QUERIES = SOUNDNESS_QUERIES + [
    "TRAIL (x) -[:r]->{1,3} (y)",
    "SIMPLE (a) -[:r]-> (b) ~[:m]~ (c:P)",
    "TRAIL (a:P) -[:r]->{1,2} (b), TRAIL (b) -[:s]-> (c)",
]


@pytest.mark.parametrize("seed", range(12))
def test_an_extension_is_the_answers_after_the_window(seed):
    """The extend verdict's identity (:mod:`repro.service.cache`), end to
    end over windows of one to three random mutations: whenever
    ``extension_hops`` allows it, the answers after the window are the
    answers before it without the removed ids, plus the evaluation
    restricted to the seeds."""
    rng = random.Random(seed)
    graph = _soundness_graph(rng)
    queries = [parse_query(text) for text in EXTENSION_QUERIES]
    footprints = [query_footprint(query) for query in queries]
    before = [Evaluator(graph).evaluate(query) for query in queries]
    extended = 0
    for _ in range(12):
        start = graph.version
        for _ in range(rng.randint(1, 3)):
            _random_mutation(rng, graph)
        summary = summarize_deltas(graph.deltas_since(start))
        snap = graph.snapshot()
        after = [Evaluator(snap).evaluate(query) for query in queries]
        for query, footprint, old, new in zip(queries, footprints, before, after):
            hops = footprint.extension_hops(summary)
            if hops is None:
                continue
            extended += 1
            kept = {
                answer for answer in old
                if all(summary.removed.isdisjoint(p.elements) for p in answer.paths)
            }
            seeds = extension_seeds(snap, summary.touched, hops)
            added = Evaluator(snap).evaluate(query, start_restriction=seeds)
            assert new == kept | added, (str(query), summary.describe())
        before = after
    assert extended
