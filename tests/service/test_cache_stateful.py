"""The result cache against the specification, under random mutation.

A hypothesis state machine adds and removes nodes and edges, sets
properties and reads six texts through the service's result cache;
every read must equal a fresh :class:`Evaluator` on the graph at that
version, whatever the cache's verdict was — hit, restamp, refilter,
extend or recomputation. Ids come from small pools so removed elements
come back under the same id. The texts cover the verdicts' edges:
path-local ``TRAIL`` / ``SIMPLE`` reads (directed, undirected, a join,
a bounded repetition under a condition, whose extensions seed two hops
out), a join whose right side reads ``knows`` (an addition there must
invalidate), a ``SHORTEST`` read (never refiltered or extended) and a
label-expression extension (footprint ``BOTTOM``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from repro.cluster import ClusterService
from repro.direction import Direction
from repro.extensions.label_expressions import EdgeWithLabelExpr, LabelAtom, LabelOr
from repro.gpc import ast
from repro.gpc.engine import Evaluator
from repro.gpc.footprint import query_footprint
from repro.gpc.parser import parse_query
from repro.graph.builder import GraphBuilder
from repro.graph.ids import DirectedEdgeId, NodeId
from repro.service import GraphService, PreparedQuery, SemanticResultCache
from repro.service.cache import extension_seeds

TEXTS = {
    "trail_edge": parse_query("TRAIL (x:Person) -[e:knows]-> (y:Person)"),
    "simple_married": parse_query("SIMPLE (x:Person) ~[:married]~ (y:Person)"),
    "join_city": parse_query(
        "TRAIL (x:Person) -[:knows]-> (y:Person), "
        "TRAIL (y:Person) -[:lives_in]-> (c:City)"
    ),
    "join_right_knows": parse_query(
        "TRAIL (c:City) <-[:lives_in]- (y:Person), "
        "TRAIL (y:Person) -[:knows]-> (z:Person)"
    ),
    "shortest": parse_query("SHORTEST (x:Person) -[:knows]->{1,} (y:Person)"),
    "trail_bounded": parse_query(
        "TRAIL [(x:Person) -[:knows]->{1,3} (y)] << x.team = y.team >>"
    ),
    "label_expr": ast.PatternQuery(
        ast.Restrictor.TRAIL,
        ast.concat(
            ast.node("x", "Person"),
            EdgeWithLabelExpr(
                Direction.FORWARD, LabelOr(LabelAtom("knows"), LabelAtom("lives_in")), "e"
            ),
            ast.node("y"),
        ),
    ),
}

NODE_KEYS = [f"n{i}" for i in range(7)]
EDGE_KEYS = [f"e{i}" for i in range(12)]
LABELS = {"knows": False, "lives_in": False, "married": True}  # label -> undirected


def _graph():
    """A `knows` cycle with a chord, so removals change shortest paths."""
    return (
        GraphBuilder()
        .node("n0", "Person", team="db")
        .node("n1", "Person", team="db")
        .node("n2", "Person", team="ml")
        .node("n3", "Person", team="ml")
        .node("n4", "City")
        .edge("n0", "n1", "knows", key="e0")
        .edge("n1", "n2", "knows", key="e1")
        .edge("n2", "n3", "knows", key="e2")
        .edge("n3", "n0", "knows", key="e3")
        .edge("n0", "n2", "knows", key="e4")
        .edge("n1", "n4", "lives_in", key="e5")
        .undirected("n0", "n2", "married", key="e6")
        .build()
    )


#: Verdicts seen over a whole run, per façade: the machine must reach
#: every one, or it checked less than it claims.
SEEN: dict[str, dict[str, int]] = {}


def _machine_graph():
    """:func:`_graph` with a sparse `knows` tail ``t0 -> t1 -> t2``: in
    the dense part every node is a hop from every other, so only a tail
    tells seeds ``L - 1`` hops out from seeds a hop short of that. ``t2``
    lives in the city, so a `knows` edge out of it is a new right side
    for `join_right_knows`."""
    graph = _graph()
    tail = [graph.add_node(f"t{i}", ["Person"], {"team": "db"}) for i in range(3)]
    for i in range(2):
        graph.add_edge(f"t{i}", tail[i], tail[i + 1], ["knows"])
    graph.add_edge("t2", tail[2], NodeId("n4"), ["lives_in"])
    return graph


class CacheMachine(RuleBasedStateMachine):
    facade = "graph"

    def __init__(self):
        super().__init__()
        if self.facade == "graph":
            self.service = GraphService(_machine_graph())
        else:
            self.service = ClusterService(
                _machine_graph(), backend="serial", num_workers=2
            )

    def teardown(self):
        cache = self.service.stats.result_cache
        seen = SEEN.setdefault(
            self.facade,
            dict.fromkeys(("restamps", "refilters", "extends", "invalidations"), 0),
        )
        for outcome in seen:
            seen[outcome] += getattr(cache, outcome)
        self.service.close()

    def _nodes(self):
        return sorted(self.service.graph.iter_nodes())

    def _edges(self):
        graph = self.service.graph
        return sorted(graph.iter_directed_edges()) + sorted(graph.iter_undirected_edges())

    @rule(key=st.sampled_from(NODE_KEYS), label=st.sampled_from(["Person", "City"]),
          team=st.sampled_from(["db", "ml"]))
    def add_node(self, key, label, team):
        if key not in {node.key for node in self._nodes()}:
            self.service.add_node(key, [label], {"team": team})

    @rule(key=st.sampled_from(EDGE_KEYS), label=st.sampled_from(sorted(LABELS)),
          ends=st.tuples(st.integers(0, 99), st.integers(0, 99)))
    def add_edge(self, key, label, ends):
        nodes = self._nodes()
        if not nodes or key in {edge.key for edge in self._edges()}:
            return
        source, target = (nodes[end % len(nodes)] for end in ends)
        add = self.service.add_undirected_edge if LABELS[label] else self.service.add_edge
        add(key, source, target, [label])

    @rule(key=st.sampled_from(EDGE_KEYS), index=st.integers(0, 99))
    def add_edge_from_tail(self, key, index):
        """A `knows` edge out of the tail's end: its new paths of
        length 3 start two hops back."""
        end, nodes = NodeId("t2"), self._nodes()
        if end in nodes and key not in {edge.key for edge in self._edges()}:
            self.service.add_edge(key, end, nodes[index % len(nodes)], ["knows"])

    @rule(index=st.integers(0, 99))
    def remove_edge(self, index):
        edges = self._edges()
        if edges:
            edge = edges[index % len(edges)]
            if isinstance(edge, DirectedEdgeId):
                self.service.remove_edge(edge)
            else:
                self.service.remove_undirected_edge(edge)

    @rule(index=st.integers(0, 99))
    def remove_node(self, index):
        nodes = self._nodes()
        if nodes:  # with every incident edge, in one delta
            self.service.remove_node(nodes[index % len(nodes)])

    @rule(index=st.integers(0, 99), key=st.sampled_from(["team", "age"]),
          value=st.sampled_from(["db", "ml", 1]))
    def set_property(self, index, key, value):
        nodes = self._nodes()
        if nodes:
            self.service.set_property(nodes[index % len(nodes)], key, value)

    @rule(name=st.sampled_from(sorted(TEXTS)))
    def evaluate(self, name):
        answers = self.service.evaluate(TEXTS[name])
        assert answers == Evaluator(self.service.graph).evaluate(TEXTS[name]), name

    @rule()
    def evaluate_all(self):
        for name in TEXTS:
            self.evaluate(name)


class ClusterCacheMachine(CacheMachine):
    facade = "cluster-serial"


def test_cached_reads_equal_the_evaluator_under_random_mutation():
    SEEN.clear()
    for machine in (CacheMachine, ClusterCacheMachine):
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=100, stateful_step_count=30, deadline=None, derandomize=True
            ),
        )
    for facade, seen in SEEN.items():
        assert min(seen.values()) > 0, (facade, seen)


def test_refilter_reads_exactly_the_readers_version():
    """The entry is at v0, the reader's snapshot at v1, and a removal
    at v2 lands before the lookup: the lookup serves the v1 answers —
    a refilter by the v1 removal only — and a lookup at v2 the v2 ones."""
    graph = _graph()
    query = TEXTS["trail_edge"]
    cache = SemanticResultCache(8, delta_source=graph.deltas_since)
    shape = ("f00d", "canonical")
    answers = Evaluator(graph).evaluate(query)
    cache.put("q", graph.version, query_footprint(query), answers, shape)
    graph.remove_edge(DirectedEdgeId("e0"))
    reader = graph.snapshot()
    graph.remove_edge(DirectedEdgeId("e1"))
    answers, outcome, _, fingerprint = cache.get_with_outcome("q", reader.version)
    assert (outcome, fingerprint) == ("refilter", shape)
    assert answers == Evaluator(reader).evaluate(query)
    assert len(answers) == 4
    # The replacement entry carries the fingerprint on.
    answers, outcome, _, fingerprint = cache.get_with_outcome("q", graph.version)
    assert (outcome, fingerprint) == ("refilter", shape)
    assert answers == Evaluator(graph).evaluate(query)
    assert len(answers) == 3


def test_extend_reads_exactly_the_readers_version():
    """The entry is at v0, the reader's snapshot at v1 after one
    addition, and a second addition at v2 lands before the lookup: the
    extension at v1 is the v1 answers, without the v2 edge."""
    graph = _graph()
    query = TEXTS["trail_edge"]
    cache = SemanticResultCache(8, delta_source=graph.deltas_since)
    cache.put("q", graph.version, query_footprint(query), Evaluator(graph).evaluate(query))
    nodes = sorted(graph.iter_nodes())
    graph.add_edge("a1", nodes[1], nodes[3], ["knows"])
    reader = graph.snapshot()
    late = graph.add_edge("a2", nodes[2], nodes[0], ["knows"])
    answers, outcome, extension, _ = cache.get_with_outcome("q", reader.version)
    assert answers is None
    assert outcome == "extend"
    kept, touched, hops = extension
    assert (touched, hops) == ({nodes[1], nodes[3]}, 0)
    seeds = extension_seeds(reader, touched, hops)
    answers = kept | PreparedQuery(query).execute(reader, start_restriction=seeds)
    assert answers == Evaluator(reader).evaluate(query)
    assert all(late not in p.elements for a in answers for p in a.paths)
    assert len(answers) == 6


def _add(key, source, target, label="knows"):
    return lambda service: service.add_edge(key, NodeId(source), NodeId(target), [label])


#: ``(text, mutation, verdict)``: one write at each edge of the rules.
EDGES = {
    # A new path t0 -> t1 -> t2 -> n0 starts two hops before the edge.
    "extend_two_hops_back": ("trail_bounded", _add("a1", "t2", "n0"), "extend"),
    # n0 -> n1 -> n2 becomes the shortest n0 -> n2 path.
    "shortest_removal": (
        "shortest", lambda service: service.remove_edge(DirectedEdgeId("e4")), "invalidated"
    ),
    "right_join_side_sees_the_addition": (
        "join_right_knows", _add("a1", "n1", "n3"), "invalidated"
    ),
    "condition_key_written_in_the_window": (
        "trail_bounded",
        lambda service: (
            _add("a1", "t2", "n0")(service),
            service.set_property(NodeId("t0"), "team", "ml"),
        ),
        "invalidated",
    ),
}


@pytest.mark.parametrize("facade", ["graph", "cluster-serial"])
@pytest.mark.parametrize("edge", sorted(EDGES))
def test_each_rule_at_its_edge(facade, edge):
    name, mutate, verdict = EDGES[edge]
    if facade == "graph":
        service = GraphService(_machine_graph())
    else:
        service = ClusterService(_machine_graph(), backend="serial", num_workers=2)
    try:
        service.evaluate(TEXTS[name])
        mutate(service)
        answers = service.evaluate(TEXTS[name])
        assert answers == Evaluator(service.graph).evaluate(TEXTS[name])
        cache = service.stats.result_cache
        assert (cache.extends, cache.invalidations) == (
            verdict == "extend", verdict == "invalidated"
        )
    finally:
        service.close()
