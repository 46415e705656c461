"""The wire codec (``repro/answers@2``): exact round trips,
deterministic encodings, each element shipped once, hostile-payload
rejection."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireError
from repro.gpc.answers import Answer
from repro.gpc.assignments import Assignment
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query
from repro.gpc.values import GroupValue, Nothing
from repro.graph.builder import GraphBuilder
from repro.graph.generators import social_network
from repro.graph.ids import DirectedEdgeId, NodeId, UndirectedEdgeId
from repro.graph.paths import Path
from repro.server import wire

#: Queries chosen to exercise every value sort an answer can carry:
#: node/edge references, group values from repetition, undirected
#: edges, and joins (multi-path answer tuples).
QUERIES = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "TRAIL (x:Person) [-[e:knows]->]{1,2} (y:Person)",
    "SIMPLE (x:Person) ~[m:married]~ (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "p = TRAIL (x:Person) -[:knows]-> (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL (y:Person) -[:lives_in]-> (c:City)",
]


class TestIdRoundTrip:
    @pytest.mark.parametrize(
        "element",
        [
            NodeId("a"),
            NodeId(7),
            NodeId(2.5),
            NodeId(False),
            NodeId(None),
            NodeId(("composite", 3)),
            NodeId(("nested", ("deep", 1))),
            DirectedEdgeId("e1"),
            UndirectedEdgeId(("u", 0)),
        ],
    )
    def test_round_trip(self, element):
        encoded = wire.encode_id(element)
        json.dumps(encoded)  # JSON-representable
        decoded = wire.decode_id(encoded)
        assert decoded == element
        assert type(decoded) is type(element)

    def test_sorts_stay_disjoint(self):
        # node("1") and dedge("1") must not collapse on the wire.
        node = wire.decode_id(wire.encode_id(NodeId("1")))
        edge = wire.decode_id(wire.encode_id(DirectedEdgeId("1")))
        assert node != edge

    def test_int_vs_float_keys_preserved(self):
        as_int = wire.decode_id(wire.encode_id(NodeId(1)))
        as_float = wire.decode_id(wire.encode_id(NodeId(1.0)))
        assert type(as_int.key) is int
        assert type(as_float.key) is float

    @pytest.mark.parametrize("bad", [{"z": 1}, {}, {"n": 1, "d": 2}, [1], "n"])
    def test_malformed_ids_rejected(self, bad):
        with pytest.raises(WireError):
            wire.decode_id(bad)

    def test_unencodable_key_rejected(self):
        with pytest.raises(WireError):
            wire.encode_id(NodeId(frozenset({1})))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_keys_rejected_on_both_sides(self, bad):
        # json.dumps would write them as the non-JSON tokens NaN /
        # Infinity, and nan != nan breaks decode(encode(s)) == s.
        with pytest.raises(WireError):
            wire.encode_id(NodeId(bad))
        with pytest.raises(WireError):
            wire.encode_id(NodeId(("nested", bad)))
        with pytest.raises(WireError):
            wire.decode_id(json.loads(json.dumps({"n": bad})))
        with pytest.raises(WireError):
            wire.decode_id({"n": {"t": ["nested", bad]}})



def _round_trip_value(value):
    """``value`` through encode -> JSON -> decode with its own table."""
    index: dict = {}
    encoded = json.loads(json.dumps(wire.encode_value(value, index)))
    return wire.decode_value(encoded, list(index))


class TestValueRoundTrip:
    def test_nothing(self):
        assert _round_trip_value(Nothing) is Nothing

    def test_id_is_an_index(self):
        index: dict = {}
        assert wire.encode_value(NodeId("a"), index) == 0
        assert wire.encode_value(DirectedEdgeId("a"), index) == 1
        assert wire.encode_value(NodeId("a"), index) == 0
        assert list(index) == [NodeId("a"), DirectedEdgeId("a")]
        assert wire.decode_value(1, list(index)) == DirectedEdgeId("a")

    def test_path(self):
        path = Path.of(
            NodeId("a"), DirectedEdgeId("e"), NodeId("b"),
            UndirectedEdgeId("u"), NodeId("c"),
        )
        assert _round_trip_value(path) == path

    def test_group(self):
        group = GroupValue(
            (
                (Path.node(NodeId("a")), NodeId("a")),
                (
                    Path.of(NodeId("a"), DirectedEdgeId("e"), NodeId("b")),
                    DirectedEdgeId("e"),
                ),
            )
        )
        assert _round_trip_value(group) == group

    def test_empty_group(self):
        assert _round_trip_value(GroupValue()) == GroupValue()

    def test_broken_alternation_rejected(self):
        elements = [NodeId("a"), NodeId("b")]
        with pytest.raises(WireError):  # node where an edge must be
            wire.decode_value({"p": [0, 1]}, elements)
        with pytest.raises(WireError):  # the empty path
            wire.decode_value({"p": []}, elements)

    @pytest.mark.parametrize(
        "bad",
        [
            {},
            None,
            "0",
            {"g": {"not": "a list"}},
            {"g": [[[0]]]},
            {"p": {"n": "a"}},
            {"n": "a"},  # an @1 tagged id where an index must be
            # Exactly {"nothing": true}, nothing else:
            {"nothing": False},
            {"nothing": 1},
            {"nothing": True, "p": [0]},
        ],
    )
    def test_malformed_values_rejected(self, bad):
        with pytest.raises(WireError):
            wire.decode_value(bad, [NodeId("a")])

    @pytest.mark.parametrize("bad", [-1, 1, True, 0.0, 1.0, "0", None, [0]])
    def test_hostile_indices_rejected(self, bad):
        # One element in the table: only the int 0 names it. -1 must
        # not wrap around, true must not read as 1, 0.0 is not an int.
        elements = [NodeId("a")]
        for payload in (bad, {"p": [bad]}, {"g": [[[bad], 0]]}, {"g": [[[0], bad]]}):
            with pytest.raises(WireError):
                wire.decode_value(payload, elements)


class TestAnswerSetRoundTrip:
    @pytest.fixture(scope="class")
    def graph(self):
        return social_network(num_people=12, friend_degree=2, seed=5)

    @pytest.mark.parametrize("text", QUERIES)
    def test_engine_answers_round_trip(self, graph, text):
        answers = Evaluator(graph).evaluate(parse_query(text))
        payload = wire.encode_answers(answers)
        blob = json.dumps(payload)  # wire-representable
        assert wire.decode_answers(json.loads(blob)) == answers

    @pytest.mark.parametrize("text", QUERIES)
    def test_encoding_is_deterministic(self, graph, text):
        answers = Evaluator(graph).evaluate(parse_query(text))
        # Rebuild the frozenset in a different insertion order: the
        # serialised bytes must not change.
        reordered = frozenset(sorted(answers, key=repr, reverse=True))
        assert wire.render_answers(answers) == wire.render_answers(reordered)

    @pytest.mark.parametrize("text", QUERIES)
    def test_each_distinct_element_is_shipped_once(self, graph, text):
        answers = Evaluator(graph).evaluate(parse_query(text))
        payload = wire.encode_answers(answers)
        table = [wire.decode_id(row) for row in payload["elements"]]
        mentioned = {
            element
            for answer in answers
            for path in answer.paths
            for element in path.elements
        }
        assert len(table) == len(set(table)) == len(mentioned)
        assert set(table) == mentioned
        # ... in first-appearance order of the sorted answers.
        seen = [i for a in payload["answers"] for p in a["paths"] for i in p]
        assert list(dict.fromkeys(seen)) == list(range(len(table)))

    @pytest.mark.parametrize("text", QUERIES)
    def test_rendered_bytes_plus_version_is_the_whole_payload(self, graph, text):
        answers = Evaluator(graph).evaluate(parse_query(text))
        payload = wire.encode_answers(answers)
        payload["version"] = 41
        whole = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert wire.with_version(wire.render_answers(answers), 41) == whole

    def test_empty_answer_set(self):
        payload = wire.encode_answers(frozenset())
        assert payload["count"] == 0
        assert payload["elements"] == []
        assert wire.decode_answers(payload) == frozenset()

    def test_answer_with_zero_paths_rejected(self):
        with pytest.raises(WireError):
            wire.decode_answer({"paths": [], "mu": {}}, [])

    def test_format_checked(self):
        with pytest.raises(WireError):
            wire.decode_answers({"format": "something-else", "answers": []})
        with pytest.raises(WireError):
            wire.decode_answers({"answers": []})
        with pytest.raises(WireError):
            wire.decode_answers([])

    def test_old_format_is_not_decoded(self):
        old = {
            "format": "repro/answers@1",
            "count": 1,
            "answers": [{"paths": [{"p": [{"n": "a"}]}], "mu": {}}],
        }
        with pytest.raises(WireError):
            wire.decode_answers(old)
        # ... and not under the new marker either.
        with pytest.raises(WireError):
            wire.decode_answers({**old, "format": wire.FORMAT})
        with pytest.raises(WireError):
            wire.decode_answers({**old, "format": wire.FORMAT, "elements": []})

    def _payload(self):
        answers = frozenset(
            {
                Answer((Path.node(NodeId("a")),), Assignment({"x": NodeId("a")})),
                Answer((Path.node(NodeId("b")),), Assignment({"x": NodeId("b")})),
            }
        )
        return answers, wire.encode_answers(answers)

    def test_count_must_match(self):
        answers, payload = self._payload()
        assert wire.decode_answers(payload) == answers
        for count in (1, 3, None, True, 2.0, "2"):
            with pytest.raises(WireError):
                wire.decode_answers({**payload, "count": count})
        truncated = {**payload, "answers": payload["answers"][:1]}
        with pytest.raises(WireError):
            wire.decode_answers(truncated)
        del payload["count"]
        with pytest.raises(WireError):
            wire.decode_answers(payload)

    @pytest.mark.parametrize(
        "table", [None, {"0": {"n": "a"}}, "ab", [{"n": "a"}], [{"n": "a"}, 7]]
    )
    def test_element_table_checked(self, table):
        # Missing, not a list, too short for the indices, a bad row.
        _, payload = self._payload()
        payload["elements"] = table
        if table is None:
            del payload["elements"]
        with pytest.raises(WireError):
            wire.decode_answers(payload)

    @pytest.mark.parametrize("bad", [-1, 2, True, 1.0])
    def test_hostile_index_anywhere_in_an_answer_set(self, bad):
        _, payload = self._payload()
        in_path = json.loads(json.dumps(payload))
        in_path["answers"][0]["paths"][0][0] = bad
        in_mu = json.loads(json.dumps(payload))
        in_mu["answers"][0]["mu"]["x"] = bad
        for hostile in (in_path, in_mu):
            with pytest.raises(WireError):
                wire.decode_answers(hostile)

    def test_assignment_variables_preserved(self):
        graph = (
            GraphBuilder()
            .node("a", "P")
            .node("b", "P")
            .edge("a", "b", "r")
            .build()
        )
        answers = Evaluator(graph).evaluate(
            parse_query("TRAIL (x:P) -[e:r]-> (y:P)")
        )
        decoded = wire.decode_answers(wire.encode_answers(answers))
        answer = next(iter(decoded))
        assert answer["x"] == NodeId("a")
        assert isinstance(answer["e"], DirectedEdgeId)
        assert answer["y"] == NodeId("b")
        assert isinstance(answer.assignment, Assignment)


# ---------------------------------------------------------------------------
# Property: any answer set over a small shared pool of elements
# ---------------------------------------------------------------------------

_scalar_keys = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text("ab", max_size=2),
)
_keys = st.one_of(
    _scalar_keys,
    st.tuples(_scalar_keys, _scalar_keys),
    st.tuples(st.text("ab", max_size=1), st.tuples(_scalar_keys)),
)


@st.composite
def _answer_sets(draw):
    """Answers whose paths, assignments and (nested) groups all draw
    from one small pool — so elements are shared within and across
    answers, and keys that are ``==`` across types (``True``/``1``/
    ``1.0``) meet in one table."""
    nodes = draw(st.lists(_keys.map(NodeId), min_size=1, max_size=4, unique=True))
    edges = draw(
        st.lists(
            st.one_of(_keys.map(DirectedEdgeId), _keys.map(UndirectedEdgeId)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )

    def path(max_edges=3):
        elements = [draw(st.sampled_from(nodes))]
        for _ in range(draw(st.integers(0, max_edges))):
            elements += [draw(st.sampled_from(edges)), draw(st.sampled_from(nodes))]
        return Path(elements)

    def value(depth):
        kind = draw(st.sampled_from("nepxg" if depth else "nepx"))
        if kind == "n":
            return draw(st.sampled_from(nodes))
        if kind == "e":
            return draw(st.sampled_from(edges))
        if kind == "p":
            return path()
        if kind == "x":
            return Nothing
        return GroupValue(
            tuple(
                (path(1), value(depth - 1))
                for _ in range(draw(st.integers(0, 2)))
            )
        )

    answers = []
    for _ in range(draw(st.integers(0, 6))):
        paths = tuple(path() for _ in range(draw(st.integers(1, 3))))
        names = draw(st.lists(st.sampled_from("xyzw"), max_size=3, unique=True))
        answers.append(Answer(paths, Assignment({n: value(2) for n in names})))
    # One representative per equality class, so every build order of
    # the frozenset holds the same objects.
    return list(dict.fromkeys(answers))


class TestAnswerSetProperty:
    @settings(max_examples=200, deadline=None)
    @given(_answer_sets(), st.randoms(use_true_random=False))
    def test_round_trip_and_build_order_independence(self, answers, rng):
        answer_set = frozenset(answers)
        blob = wire.render_answers(answer_set)
        assert wire.decode_answers(json.loads(blob)) == answer_set
        shuffled = list(answers)
        rng.shuffle(shuffled)
        assert wire.render_answers(frozenset(shuffled)) == blob
        assert wire.render_answers(reversed(answers)) == blob
        table = [wire.decode_id(row) for row in json.loads(blob)["elements"]]
        assert len(table) == len(set(table))
