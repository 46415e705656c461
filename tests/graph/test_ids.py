"""Identifier sorts: disjointness, immutability, ordering, pickling."""

import copy
import json
import pickle

import pytest

from repro.bench import harness
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId

SORTS = (NodeId, DirectedEdgeId, UndirectedEdgeId)


class TestDisjointness:
    def test_same_key_different_sorts_not_equal(self):
        assert NodeId("x") != DirectedEdgeId("x")
        assert NodeId("x") != UndirectedEdgeId("x")
        assert DirectedEdgeId("x") != UndirectedEdgeId("x")

    @pytest.mark.parametrize("key", ["x", 7, ("t", 1), None, 2.5])
    def test_same_key_different_sorts_coexist_in_sets_and_dicts(self, key):
        # An id is a (sort tag, key) pair hashed and compared in C;
        # equality (sort and key) keeps the three sorts apart.
        ids = [NodeId(key), DirectedEdgeId(key), UndirectedEdgeId(key)]
        assert all(type(i).__hash__ is tuple.__hash__ for i in ids)
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


class TestTupleRepresentation:
    """An id is a ``(sort tag, key)`` tuple: hashed and compared in C,
    and still nothing but an id to every other value."""

    @pytest.mark.parametrize("sort", SORTS)
    def test_hash_and_equality_are_tuples(self, sort):
        assert sort.__hash__ is tuple.__hash__
        assert sort.__eq__ is tuple.__eq__ and sort.__ne__ is tuple.__ne__

    @pytest.mark.parametrize("sort", SORTS)
    @pytest.mark.parametrize("key", ["x", 7, ("t", 1), None])
    def test_equals_no_plain_tuple_nor_its_bare_key(self, sort, key):
        element = sort(key)
        others = [key, (key,), (sort._tag, key), (sort.__name__, key), (None, key)]
        assert all(element != other and other != element for other in others)
        assert len({element, *others}) == len(others) + 1

    def test_key_reads_the_key_and_stays_put(self):
        element = DirectedEdgeId(("t", 1))
        assert element.key == ("t", 1) and str(element) == "('t', 1)"
        with pytest.raises(AttributeError):
            element.other = 1

    @pytest.mark.parametrize("sort", SORTS)
    @pytest.mark.parametrize("key", ["x", 7, ("t", 1)])
    def test_pickle_and_copies_keep_equality_and_hash(self, sort, key):
        element = sort(key)
        copies = [
            pickle.loads(pickle.dumps(element, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        copies += [copy.copy(element), copy.deepcopy(element)]
        copies += copy.deepcopy({element: [element]}).popitem()[1]
        for copied in copies:
            assert type(copied) is sort and copied == element
            assert hash(copied) == hash(element) and copied.key == key

    def test_cross_sort_order_is_by_tag_name_whatever_the_keys(self):
        ids = [UndirectedEdgeId(0), NodeId(9), DirectedEdgeId(5), NodeId(1)]
        assert sorted(ids) == [
            DirectedEdgeId(5), NodeId(1), NodeId(9), UndirectedEdgeId(0)
        ]
        assert DirectedEdgeId("z") < NodeId("a") < UndirectedEdgeId("a")
        assert NodeId("a") > DirectedEdgeId("z") and NodeId("a") >= DirectedEdgeId("z")
        assert not NodeId("a") <= DirectedEdgeId("z")

    def test_mixed_keys_order_by_repr(self):
        # repr("a") == "'a'" sorts before repr(2) == "2".
        assert sorted([NodeId(2), NodeId("a")]) == [NodeId("a"), NodeId(2)]
        assert NodeId("a") < NodeId(2) and NodeId(2) > NodeId("a")
        assert NodeId(2) >= NodeId("a") and NodeId("a") <= NodeId(2)

    def test_ordering_against_a_non_id_is_refused(self):
        with pytest.raises(TypeError):
            NodeId("a") < "a"
        with pytest.raises(TypeError):
            NodeId("a") > ("a",)

    def test_json_refuses_an_id(self):
        with pytest.raises(TypeError):
            json.dumps(NodeId("x"))

    def test_bench_json_writes_an_id_as_its_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv(harness.JSON_ENV_VAR, str(tmp_path))
        path = harness.emit_json(
            "ids", {"at": NodeId("x"), "path": (NodeId(1), UndirectedEdgeId("u"), ("t", 2))}
        )
        assert json.loads(path.read_text()) == {"at": "x", "path": ["1", "u", ["t", 2]]}
