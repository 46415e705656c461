"""Identifier sorts: disjointness, immutability, ordering, pickling."""

import pickle

import pytest

from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId


class TestDisjointness:
    def test_same_key_different_sorts_not_equal(self):
        assert NodeId("x") != DirectedEdgeId("x")
        assert NodeId("x") != UndirectedEdgeId("x")
        assert DirectedEdgeId("x") != UndirectedEdgeId("x")

    @pytest.mark.parametrize("key", ["x", 7, ("t", 1), None, 2.5])
    def test_same_key_different_sorts_coexist_in_sets_and_dicts(self, key):
        # An id hashes its key alone, so the three sorts share a bucket;
        # equality (sort and key) keeps them apart.
        ids = [NodeId(key), DirectedEdgeId(key), UndirectedEdgeId(key)]
        assert len({hash(i) for i in ids}) == 1
        assert all(a != b for a in ids for b in ids if a is not b)
        assert len(set(ids)) == 3
        table = {element: i for i, element in enumerate(ids)}
        assert [table[type(e)(key)] for e in ids] == [0, 1, 2]

    def test_same_sort_same_key_equal(self):
        assert NodeId("x") == NodeId("x")
        assert hash(NodeId(7)) == hash(NodeId(7))

    def test_not_equal_to_bare_key(self):
        assert NodeId("x") != "x"


class TestImmutability:
    def test_cannot_set_attribute(self):
        node = NodeId("x")
        with pytest.raises(AttributeError):
            node.key = "y"

    def test_cannot_wrap_an_id(self):
        with pytest.raises(TypeError):
            NodeId(NodeId("x"))


class TestPickle:
    @pytest.mark.parametrize("sort", [NodeId, DirectedEdgeId, UndirectedEdgeId])
    @pytest.mark.parametrize("key", ["x", 7, ("t", 1)])
    def test_ids_survive_pickle(self, sort, key):
        element = sort(key)
        copied = pickle.loads(pickle.dumps(element))
        assert copied == element and type(copied) is sort
        assert hash(copied) == hash(element)


class TestOrdering:
    def test_within_sort_by_key(self):
        assert NodeId("a") < NodeId("b")
        assert not NodeId("b") < NodeId("a")

    def test_le_is_reflexive(self):
        assert NodeId("a") <= NodeId("a")

    def test_cross_sort_order_is_deterministic(self):
        ids = [UndirectedEdgeId("x"), NodeId("x"), DirectedEdgeId("x")]
        assert sorted(ids) == sorted(ids[::-1])

    def test_mixed_key_types_do_not_crash(self):
        assert sorted([NodeId(2), NodeId("a")]) in (
            [NodeId(2), NodeId("a")],
            [NodeId("a"), NodeId(2)],
        )


class TestRepr:
    def test_repr_shows_sort(self):
        assert repr(NodeId("u")) == "node('u')"
        assert repr(DirectedEdgeId("e")) == "dedge('e')"
        assert repr(UndirectedEdgeId("e")) == "uedge('e')"

    def test_str_is_bare_key(self):
        assert str(NodeId("u")) == "u"
