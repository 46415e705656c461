"""SeedPartitioner: coverage, disjointness, balance, planner pruning."""

from __future__ import annotations

import pytest

from repro.cluster import SeedPartitioner
from repro.direction import Direction
from repro.extensions.arithmetic import ArithConditioned, TermConst
from repro.extensions.label_expressions import EdgeWithLabelExpr, LabelAtom, LabelOr
from repro.gpc import ast
from repro.gpc.parser import parse_query
from repro.graph.builder import GraphBuilder
from repro.graph.generators import social_network
from repro.service import PreparedQuery

#: A ``trail`` over a label expression: its register NFA is exact, so
#: it walks the register route.
_LABEL_EXPR = ast.PatternQuery(
    ast.Restrictor.TRAIL,
    ast.concat(
        ast.node("x", "Person"),
        EdgeWithLabelExpr(
            Direction.FORWARD, LabelOr(LabelAtom("knows"), LabelAtom("lives_in"))
        ),
        ast.node("y"),
    ),
)

#: The same under an arithmetic condition: its NFA runs the child in
#: the condition's place and over-approximates, so the register route
#: refuses it and it takes the bounded route.
_REFUSED = ast.PatternQuery(
    ast.Restrictor.TRAIL,
    ArithConditioned(_LABEL_EXPR.pattern, TermConst(1), TermConst(1)),
)


@pytest.fixture(scope="module")
def snap():
    return social_network(num_people=20, friend_degree=3, seed=11).snapshot()


class TestPartitionLaws:
    @pytest.mark.parametrize("parts", [1, 2, 3, 7])
    def test_disjoint_and_covering(self, snap, parts):
        cells = SeedPartitioner(parts).partition(snap)
        union = set()
        for cell in cells:
            assert not (union & cell), "cells must be disjoint"
            union |= cell
        assert union == set(snap.nodes)
        assert len(cells) <= parts

    def test_deterministic(self, snap):
        first = SeedPartitioner(4).partition(snap)
        second = SeedPartitioner(4).partition(snap)
        assert first == second

    def test_more_partitions_than_nodes(self):
        snap = GraphBuilder().node("a").node("b").build().snapshot()
        cells = SeedPartitioner(8).partition(snap)
        assert len(cells) == 2
        assert all(len(cell) == 1 for cell in cells)

    def test_degree_balance(self, snap):
        # Degree-weighted loads of LPT cells stay close: the heaviest
        # cell carries at most the ideal share plus one max node weight.
        cells = SeedPartitioner(4).partition(snap)
        loads = [
            sum(1 + snap.degree(node) for node in cell) for cell in cells
        ]
        total = sum(loads)
        heaviest_node = max(1 + snap.degree(n) for n in snap.nodes)
        assert max(loads) <= total / len(loads) + heaviest_node

    def test_empty_graph_yields_one_empty_cell(self):
        snap = GraphBuilder().build().snapshot()
        assert SeedPartitioner(4).partition(snap) == (frozenset(),)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedPartitioner(0)


class TestPlannerPruning:
    def test_universe_restricted_to_label_candidates(self, snap):
        prepared = PreparedQuery(
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"
        )
        partitioner = SeedPartitioner(3)
        universe = partitioner.seed_universe(snap, prepared)
        assert set(universe) == set(snap.nodes_with_label("Person"))
        cells = partitioner.partition(snap, prepared)
        assert set().union(*cells) == set(universe)

    def test_unconstrained_query_uses_all_nodes(self, snap):
        prepared = PreparedQuery("TRAIL (x) -> (y)")
        universe = SeedPartitioner(3).seed_universe(snap, prepared)
        assert set(universe) == set(snap.nodes)

    def test_join_uses_leftmost_pattern(self, snap):
        prepared = PreparedQuery(
            "TRAIL (x:City) <-[:lives_in]- (y:Person), TRAIL (y:Person) -[:knows]-> (z)"
        )
        universe = SeedPartitioner(3).seed_universe(snap, prepared)
        assert set(universe) == set(snap.nodes_with_label("City"))

    def test_absent_label_short_circuits_to_empty(self, snap):
        prepared = PreparedQuery("SHORTEST (x:Ghost) -[:knows]->{1,} (y)")
        partitioner = SeedPartitioner(3)
        assert partitioner.seed_universe(snap, prepared) == ()
        assert partitioner.partition(snap, prepared) == (frozenset(),)

    def test_describe_mentions_universe_and_shards(self, snap):
        prepared = PreparedQuery(
            "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"
        )
        text = SeedPartitioner(2).describe(snap, prepared)
        assert "seed universe" in text and "shard" in text


class TestShardability:
    """Only natively restrictable queries are worth splitting: a pattern
    the register compiler refuses would pay the full bounded evaluation
    in every shard (K-fold duplicated CPU for zero division)."""

    @pytest.mark.parametrize(
        "text,shardable",
        [
            ("SHORTEST (x:Person) -[:knows]->{1,} (y:Person)", True),
            ("SHORTEST (x:Person) -[:knows]->{1,} (y), TRAIL (y) -[:lives_in]-> (c)", True),
            ("TRAIL (x:Person) -[:knows]-> (y)", True),
            ("SIMPLE (x) ->{1,2} (y)", True),
            ("SHORTEST TRAIL (x) -> () -> (y)", True),
            ("TRAIL (x) -> (y), SHORTEST (y) ->{1,} (z)", True),
            (_LABEL_EXPR, True),
            ("TRAIL (x) [[-[e:knows]->]{0,1}]{1,} (y)", True),
            (_REFUSED, False),
            (ast.Join(_REFUSED, parse_query("TRAIL (y) -> (z)")), False),
        ],
        ids=["shortest", "shortest-left-join", "trail", "simple",
             "shortest-trail", "trail-left-join", "label-expr", "gpc022-trail", "refused",
             "refused-left-join"],
    )
    def test_shardable(self, snap, text, shardable):
        prepared = PreparedQuery(text)
        partitioner = SeedPartitioner(3)
        assert partitioner.shardable(prepared) is shardable
        cells = partitioner.partition(snap, prepared)
        if shardable:
            assert len(cells) == 3
        else:
            assert cells == (None,)

    @pytest.mark.parametrize(
        "query,route",
        [
            (
                _REFUSED,
                "bounded eval at |E|, pruned to trails while building, filtered"
                " once (the automaton runs the child of ArithConditioned in its"
                " place)",
            ),
            (
                ast.PatternQuery(
                    ast.Restrictor.SHORTEST,
                    ArithConditioned(
                        parse_query("SHORTEST (x:Person) -[:knows]->{1,} (y)").pattern,
                        TermConst(1),
                        TermConst(1),
                    ),
                ),
                "abstraction-guided deepening (the automaton runs the child of"
                " ArithConditioned in its place)",
            ),
        ],
        ids=["refused", "deepening"],
    )
    def test_unsharded_describe(self, snap, query, route):
        prepared = PreparedQuery(query)
        partitioner = SeedPartitioner(2)
        assert partitioner.partition(snap, prepared) == (None,)
        assert partitioner.describe(snap, prepared) == (
            f"unsharded (the leftmost pattern runs {route}; "
            "sharding would repeat that evaluation in every shard)"
        )

    @pytest.mark.parametrize(
        "query, people",
        [
            (_LABEL_EXPR, 20),
            # Every walk has 2^(length + 1) answers: keep it small.
            ("SHORTEST (x:Person) [[-[e:knows]->]{0,1}]{1,} (y:Person)", 8),
        ],
        ids=["label-expr", "gpc022-shortest"],
    )
    def test_a_register_route_pattern_shards_losslessly(self, query, people):
        from repro.cluster import ClusterService
        from repro.gpc.engine import Evaluator
        from repro.gpc.parser import parse_query

        graph = social_network(num_people=people, friend_degree=3, seed=11)
        if isinstance(query, str):
            query = parse_query(query)
        whole = Evaluator(graph).evaluate(query)
        assert whole
        with ClusterService(graph, backend="serial", num_workers=3) as cluster:
            assert cluster.evaluate(query, use_cache=False) == whole
            assert cluster.stats.scatters == 3  # one shard task per cell
