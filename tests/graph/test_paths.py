"""Path algebra: construction, concatenation, restrictor predicates."""

import re

import pytest

from repro.errors import PathError
from repro.graph.ids import DirectedEdgeId as E, NodeId as N
from repro.graph.paths import Path, concat_paths, is_simple, is_trail, path_in_graph


def p(*elements):
    return Path.of(*elements)


class TestConstruction:
    def test_single_node(self):
        path = Path.node(N("u"))
        assert len(path) == 0
        assert path.is_edgeless
        assert path.src == path.tgt == N("u")

    def test_alternation_enforced(self):
        with pytest.raises(PathError):
            Path.of(N("u"), N("v"))
        with pytest.raises(PathError):
            Path.of(E("e"))
        with pytest.raises(PathError):
            Path.of(N("u"), E("e"))
        with pytest.raises(PathError):
            Path(())

    def test_length_counts_edges(self):
        path = p(N("u"), E("e1"), N("v"), E("e2"), N("w"))
        assert len(path) == 2
        assert path.length == 2
        assert path.size == 5

    def test_nodes_and_edges_views(self):
        path = p(N("u"), E("e1"), N("v"))
        assert path.nodes == (N("u"), N("v"))
        assert path.edges == (E("e1"),)

    def test_steps(self):
        path = p(N("u"), E("e1"), N("v"), E("e2"), N("u"))
        assert list(path.steps()) == [
            (N("u"), E("e1"), N("v")),
            (N("v"), E("e2"), N("u")),
        ]

    def test_immutable(self):
        path = Path.node(N("u"))
        with pytest.raises(AttributeError):
            path._elements = ()


class TestConcatenation:
    def test_basic(self):
        left = p(N("u"), E("e1"), N("v"))
        right = p(N("v"), E("e2"), N("w"))
        combined = left.concat(right)
        assert combined == p(N("u"), E("e1"), N("v"), E("e2"), N("w"))

    def test_mismatched_endpoints_rejected(self):
        left = p(N("u"), E("e1"), N("v"))
        right = p(N("w"), E("e2"), N("u"))
        assert not left.concatenates_with(right)
        with pytest.raises(PathError):
            left.concat(right)

    def test_edgeless_is_left_and_right_unit(self):
        path = p(N("u"), E("e1"), N("v"))
        assert Path.node(N("u")).concat(path) == path
        assert path.concat(Path.node(N("v"))) == path

    def test_concat_paths_helper(self):
        a = p(N("u"), E("e1"), N("v"))
        b = p(N("v"), E("e2"), N("w"))
        c = Path.node(N("w"))
        assert concat_paths(a, b, c) == a.concat(b)
        with pytest.raises(PathError):
            concat_paths()

    def test_concat_is_associative(self):
        a = p(N("1"), E("x"), N("2"))
        b = p(N("2"), E("y"), N("3"))
        c = p(N("3"), E("z"), N("4"))
        assert a.concat(b).concat(c) == a.concat(b.concat(c))


class TestSubpathAndReverse:
    def test_subpath(self):
        path = p(N("a"), E("1"), N("b"), E("2"), N("c"))
        assert path.subpath(0, 1) == p(N("a"), E("1"), N("b"))
        assert path.subpath(1, 1) == Path.node(N("b"))
        assert path.subpath(0, 2) == path

    def test_subpath_bounds_checked(self):
        path = p(N("a"), E("1"), N("b"))
        with pytest.raises(PathError):
            path.subpath(0, 2)
        with pytest.raises(PathError):
            path.subpath(1, 0)

    def test_reversed(self):
        path = p(N("a"), E("1"), N("b"))
        assert path.reversed() == p(N("b"), E("1"), N("a"))


class TestDerivedPathsSkipRevalidation:
    """``subpath``, ``concat`` and ``reversed`` slice already validated
    paths; every constructor that takes outside elements still checks
    them."""

    def test_derived_paths_equal_publicly_constructed_ones(self):
        import pickle

        elements = (N("u"), E("e1"), N("v"), E("e2"), N("w"))
        path = Path(elements)
        derived = {
            path.subpath(1, 2): Path(elements[2:]),
            path.subpath(1, 1): Path.node(N("v")),
            path.subpath(0, 1).concat(path.subpath(1, 2)): Path.of(*elements),
            path.reversed(): Path(elements[::-1]),
        }
        for got, expected in derived.items():
            assert got == expected and hash(got) == hash(expected)
            assert got.elements == expected.elements
            assert pickle.loads(pickle.dumps(got)) == expected

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((), "a path must contain at least one node"),
            ((E("e"),), "position 0 must be a node, got dedge('e')"),
            ((N("u"), N("v")), "a path must start and end with a node"),
            ((N("u"), E("e")), "a path must start and end with a node"),
            ((N("u"), E("e"), E("f")), "position 2 must be a node, got dedge('f')"),
            ((N("u"), N("v"), N("w")), "position 1 must be an edge, got node('v')"),
            ((N("u"), E("e"), "v"), "position 2 must be a node, got 'v'"),
        ],
    )
    def test_malformed_elements_still_raise_everywhere_public(self, elements, message):
        from repro.errors import WireError
        from repro.server import wire

        with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
            Path(elements)
        with pytest.raises(PathError, match=f"^{re.escape(message)}$"):
            Path.of(*elements)
        if len(elements) == 1:
            with pytest.raises(PathError):
                Path.node(elements[0])
        ids = [e for e in elements if isinstance(e, (N, E))]
        if len(ids) == len(elements):  # ... and as a path value on the wire
            nodes = ["anchor"] + [e.key for e in ids if isinstance(e, N)]
            edges = [e.key for e in ids if isinstance(e, E)]
            index = {N(k): i for i, k in enumerate(nodes)}
            index.update({E(k): len(nodes) + i for i, k in enumerate(edges)})
            payload = {
                "format": wire.FORMAT, "count": 1, "arity": 1,
                "elements": {"n": nodes, "d": edges, "u": []},
                "lengths": [1], "paths": [0],
                "mu": {"p": [{"p": [index[e] for e in ids]}]},
            }
            with pytest.raises(WireError, match=re.escape(message)):
                wire.decode_answers(payload)


class TestPredicates:
    def test_trail_rejects_repeated_edge(self):
        path = p(N("a"), E("1"), N("b"), E("1"), N("a"))
        assert not is_trail(path)
        assert is_simple(p(N("a"), E("1"), N("b")))

    def test_trail_allows_repeated_node(self):
        path = p(N("a"), E("1"), N("b"), E("2"), N("a"))
        assert is_trail(path)
        assert not is_simple(path)

    def test_edgeless_path_is_trail_and_simple(self):
        path = Path.node(N("a"))
        assert is_trail(path)
        assert is_simple(path)


class TestRadixOrder:
    def test_shorter_paths_first(self):
        short = Path.node(N("z"))
        long = p(N("a"), E("1"), N("b"))
        assert short < long

    def test_same_length_lexicographic(self):
        a = p(N("a"), E("1"), N("b"))
        b = p(N("a"), E("2"), N("b"))
        assert a < b

    def test_sorting_is_total_on_distinct_paths(self):
        paths = [
            Path.node(N("b")),
            Path.node(N("a")),
            p(N("a"), E("1"), N("a")),
        ]
        ordered = sorted(paths)
        assert ordered[0] == Path.node(N("a"))
        assert ordered[-1].length == 1


class TestPathInGraph:
    def test_forward_backward_undirected(self, mixed_graph):
        u, v = N("u"), N("v")
        forward = p(u, E("d1"), v)
        backward = p(v, E("d1"), u)
        assert path_in_graph(forward, mixed_graph)
        assert path_in_graph(backward, mixed_graph)

    def test_undirected_traversal(self, mixed_graph):
        from repro.graph.ids import UndirectedEdgeId as U

        assert path_in_graph(p(N("u"), U("u1"), N("v")), mixed_graph)
        assert path_in_graph(p(N("v"), U("u1"), N("u")), mixed_graph)
        assert not path_in_graph(p(N("u"), U("u1"), N("w")), mixed_graph)

    def test_unknown_elements(self, mixed_graph):
        assert not path_in_graph(Path.node(N("zz")), mixed_graph)
        assert not path_in_graph(p(N("u"), E("nope"), N("v")), mixed_graph)

    def test_self_loops(self, mixed_graph):
        from repro.graph.ids import UndirectedEdgeId as U

        assert path_in_graph(p(N("u"), E("d3"), N("u")), mixed_graph)
        assert path_in_graph(p(N("w"), U("u2"), N("w")), mixed_graph)
