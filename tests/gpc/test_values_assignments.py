"""Values (Definition 7) and assignments (unification algebra)."""

import pickle

import pytest

from repro.errors import EvaluationError
from repro.gpc.answers import Answer
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.graph.builder import GraphBuilder
from repro.graph.ids import DirectedEdgeId as E, NodeId as N, UndirectedEdgeId as U
from repro.graph.paths import Path
from repro.gpc.assignments import EMPTY_ASSIGNMENT, Assignment, unify_all
from repro.gpc.types import (
    EDGE,
    GroupType,
    MaybeType,
    NODE,
    PATH,
)
from repro.gpc.values import GroupValue, Nothing, NothingType, conforms


class TestNothing:
    def test_singleton(self):
        assert NothingType() is Nothing

    def test_equality_and_hash(self):
        assert Nothing == NothingType()
        assert hash(Nothing) == hash(NothingType())

    def test_falsy(self):
        assert not Nothing

    def test_repr(self):
        assert repr(Nothing) == "Nothing"


class TestGroupValue:
    def test_empty(self):
        g = GroupValue()
        assert len(g) == 0
        assert list(g) == []

    def test_entries_access(self):
        p = Path.node(N("u"))
        g = GroupValue(((p, N("u")),))
        assert g[0] == (p, N("u"))
        assert g.values == (N("u"),)
        assert g.paths == (p,)

    def test_append_returns_new(self):
        g = GroupValue()
        g2 = g.append(Path.node(N("u")), N("u"))
        assert len(g) == 0
        assert len(g2) == 1

    def test_invalid_entry_rejected(self):
        with pytest.raises(TypeError):
            GroupValue(((N("u"), N("u")),))

    def test_hashable(self):
        p = Path.node(N("u"))
        assert hash(GroupValue(((p, N("u")),))) == hash(GroupValue(((p, N("u")),)))


def _eager(value):
    """``value`` with every list, nested ones too, rebuilt from its
    entries."""
    if isinstance(value, GroupValue):
        return GroupValue(tuple((p, _eager(v)) for p, v in value.entries))
    return value


#: Queries whose answers hold lists the witness pass builds as offsets:
#: a run, Nothing from a union, empty lists and a list of lists.
GROUP_QUERIES = {
    "SHORTEST (x) -> -[e]->{1,2} (y)": {"e": GroupType(EDGE)},
    "TRAIL (x) [-[e]-> (z) + <-[f]-]{1,2} (y)": {
        "e": GroupType(MaybeType(EDGE)),
        "z": GroupType(MaybeType(NODE)),
        "f": GroupType(MaybeType(EDGE)),
    },
    "SHORTEST (x) [[-[e]->]{0,0} -[f]->]{2,2} (y)": {
        "e": GroupType(GroupType(EDGE)),
        "f": GroupType(EDGE),
    },
    "TRAIL (x) [[-[e]->]{1,2}]{1,2} (y)": {"e": GroupType(GroupType(EDGE))},
}


class TestGroupForms:
    """A list built over a walk's offsets is the list built from its
    entries: one value, whichever way it was made."""

    @pytest.fixture(scope="class")
    def engine_sets(self):
        # A triangle with a self-loop on a: walks repeat elements.
        graph = (
            GraphBuilder()
            .node("a").node("b").node("c")
            .edge("a", "a", "r").edge("a", "b", "r").edge("b", "c", "r").edge("c", "a", "r")
            .build()
        )
        evaluator = Evaluator(graph)
        return {text: evaluator.evaluate(parse_query(text)) for text in GROUP_QUERIES}

    def test_offsets_read_like_entries(self):
        u, v, w, e1, e2 = N("u"), N("v"), N("w"), E("e1"), E("e2")
        walk = (u, e1, v, e2, w)
        lazy = GroupValue.over(walk, ((0, 3), (2, 5)), (e1, e2))
        eager = GroupValue(((Path.of(u, e1, v), e1), (Path.of(v, e2, w), e2)))
        assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
        assert repr(lazy) == repr(eager)
        assert len(lazy) == 2 and lazy.values == (e1, e2)
        assert lazy.paths == eager.paths and list(lazy) == list(eager)
        assert lazy[1] == (Path.of(v, e2, w), e2)
        assert lazy.portions == eager.portions == ((u, e1, v), (v, e2, w))
        assert lazy.chain() == eager.chain() == walk
        assert conforms(lazy, GroupType(EDGE)) and not conforms(lazy, GroupType(NODE))
        assert GroupValue.over(walk, (), ()) == GroupValue()

    def test_equality_compares_portions_not_offsets(self):
        a, r = N("a"), E("r")
        walk = (a, r, a, r, a)
        first, second = GroupValue.over(walk, ((0, 3),), (r,)), GroupValue.over(walk, ((2, 5),), (r,))
        assert first == second and hash(first) == hash(second)
        assert first == GroupValue(((Path.of(a, r, a), r),))
        assert first != GroupValue.over(walk, ((0, 5),), (r,))
        assert first != GroupValue.over(walk, ((0, 3),), (a,))

    def test_immutable(self):
        lazy = GroupValue.over((N("u"),), ((0, 1),), (N("u"),))
        with pytest.raises(AttributeError):
            lazy._values = ()
        assert lazy.entries == ((Path.node(N("u")), N("u")),)  # built on read all the same

    def test_engine_lists_equal_their_eager_rebuild(self, engine_sets):
        for text, schema in GROUP_QUERIES.items():
            answers = engine_sets[text]
            assert answers, text
            rebuilt = frozenset(
                Answer(a.paths, Assignment({k: _eager(v) for k, v in a.assignment.items()}))
                for a in answers
            )
            assert rebuilt == answers
            for answer in answers:
                eager = Answer(
                    answer.paths,
                    Assignment({k: _eager(v) for k, v in answer.assignment.items()}),
                )
                assert eager == answer and hash(eager) == hash(answer)
                assert eager.assignment == answer.assignment
                assert hash(eager.assignment) == hash(answer.assignment)
                assert repr(eager.assignment) == repr(answer.assignment)
                for name, tau in schema.items():
                    lazy, built = answer[name], eager[name]
                    assert (len(lazy), lazy.values, lazy.paths) == (
                        len(built), built.values, built.paths
                    )
                    assert conforms(lazy, tau) and conforms(built, tau)

    def test_pickle_round_trips_flat_and_nested_lists(self, engine_sets):
        for text in ("SHORTEST (x) -> -[e]->{1,2} (y)", "TRAIL (x) [[-[e]->]{1,2}]{1,2} (y)"):
            for answer in engine_sets[text]:
                group = answer["e"]
                assert group.__reduce__()[0] == GroupValue.over  # built over offsets
                back = pickle.loads(pickle.dumps(group))
                assert back == group == _eager(back) and repr(back) == repr(group)
                assert pickle.loads(pickle.dumps(answer)) == answer


class TestConforms:
    def test_atomic_types(self):
        assert conforms(N("u"), NODE)
        assert not conforms(E("e"), NODE)
        assert conforms(E("e"), EDGE)
        assert conforms(U("e"), EDGE)
        assert not conforms(N("u"), EDGE)
        assert conforms(Path.node(N("u")), PATH)
        assert not conforms(N("u"), PATH)

    def test_maybe(self):
        assert conforms(Nothing, MaybeType(NODE))
        assert conforms(N("u"), MaybeType(NODE))
        assert not conforms(E("e"), MaybeType(NODE))

    def test_group(self):
        p = Path.node(N("u"))
        good = GroupValue(((p, N("u")),))
        assert conforms(good, GroupType(NODE))
        assert not conforms(good, GroupType(EDGE))
        assert conforms(GroupValue(), GroupType(EDGE))

    def test_nested_group(self):
        p = Path.node(N("u"))
        nested = GroupValue(((p, GroupValue(((p, E("e")),))),))
        assert conforms(nested, GroupType(GroupType(EDGE)))


class TestAssignment:
    def test_mapping_protocol(self):
        mu = Assignment({"x": N("u")})
        assert mu["x"] == N("u")
        assert "x" in mu
        assert len(mu) == 1
        assert list(mu) == ["x"]
        assert mu.domain == frozenset({"x"})

    def test_immutability(self):
        mu = Assignment({"x": N("u")})
        with pytest.raises(AttributeError):
            mu._lookup = {}

    def test_bind_new(self):
        mu = EMPTY_ASSIGNMENT.bind("x", N("u"))
        assert mu["x"] == N("u")
        assert len(EMPTY_ASSIGNMENT) == 0

    def test_bind_same_value_noop(self):
        mu = Assignment({"x": N("u")})
        assert mu.bind("x", N("u")) is mu

    def test_bind_conflict_raises(self):
        mu = Assignment({"x": N("u")})
        with pytest.raises(EvaluationError):
            mu.bind("x", N("v"))

    def test_equality_order_independent(self):
        a = Assignment({"x": N("u"), "y": N("v")})
        b = Assignment({"y": N("v"), "x": N("u")})
        assert a == b
        assert hash(a) == hash(b)

    def test_project_and_drop(self):
        mu = Assignment({"x": N("u"), "y": N("v")})
        assert mu.project(["x"]) == Assignment({"x": N("u")})
        assert mu.drop(["x"]) == Assignment({"y": N("v")})


class TestUnification:
    def test_disjoint_domains_unify(self):
        a = Assignment({"x": N("u")})
        b = Assignment({"y": N("v")})
        assert a.unify(b) == Assignment({"x": N("u"), "y": N("v")})

    def test_agreeing_overlap_unifies(self):
        a = Assignment({"x": N("u"), "y": N("v")})
        b = Assignment({"x": N("u"), "z": N("w")})
        merged = a.unify(b)
        assert merged is not None and merged.domain == frozenset({"x", "y", "z"})

    def test_conflict_returns_none(self):
        a = Assignment({"x": N("u")})
        b = Assignment({"x": N("v")})
        assert a.unify(b) is None
        assert not a.unifies_with(b)

    def test_empty_is_unit(self):
        a = Assignment({"x": N("u")})
        assert a.unify(EMPTY_ASSIGNMENT) == a
        assert EMPTY_ASSIGNMENT.unify(a) == a

    def test_nothing_values_unify_strictly(self):
        # Default unification treats Nothing like any other value.
        a = Assignment({"x": Nothing})
        b = Assignment({"x": N("v")})
        assert a.unify(b) is None

    def test_weak_unification_allows_nothing(self):
        # Remark 8's weaker notion.
        a = Assignment({"x": Nothing, "y": N("u")})
        b = Assignment({"x": N("v"), "y": N("u")})
        assert a.weak_unifies_with(b)
        merged = a.weak_unify(b)
        assert merged == Assignment({"x": N("v"), "y": N("u")})

    def test_weak_unification_still_rejects_conflicts(self):
        a = Assignment({"x": N("u")})
        b = Assignment({"x": N("v")})
        assert a.weak_unify(b) is None

    def test_unify_all_family(self):
        family = [
            Assignment({"x": N("u")}),
            Assignment({"y": N("v")}),
            Assignment({"x": N("u"), "z": N("w")}),
        ]
        merged = unify_all(family)
        assert merged is not None and merged.domain == frozenset({"x", "y", "z"})

    def test_unify_all_conflict(self):
        family = [Assignment({"x": N("u")}), Assignment({"x": N("v")})]
        assert unify_all(family) is None

    def test_unify_all_associativity(self):
        a = Assignment({"x": N("u")})
        b = Assignment({"y": N("v")})
        c = Assignment({"x": N("u"), "y": N("v"), "z": N("w")})
        assert unify_all([a, b, c]) == unify_all([c, b, a])


class TestConformsToSchema:
    def test_domain_must_match(self):
        mu = Assignment({"x": N("u")})
        assert mu.conforms_to({"x": NODE})
        assert not mu.conforms_to({"x": NODE, "y": EDGE})
        assert not mu.conforms_to({})

    def test_types_must_match(self):
        mu = Assignment({"x": N("u")})
        assert not mu.conforms_to({"x": EDGE})
