"""The wire codec (``repro/answers@3``): exact round trips, deterministic
encodings, each element shipped once, groups as runs, hostile-payload
rejection."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

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
from repro.graph.property_graph import PropertyGraph
from repro.server import wire

#: Queries chosen to exercise every value sort an answer can carry:
#: node/edge references, group values from repetition (runs, and the
#: index-list form for multi-edge iterations and nested groups),
#: ``Nothing`` from a union, undirected edges, named path variables and
#: joins (multi-path answer tuples).
QUERIES = [
    "TRAIL (x:Person) -[e:knows]-> (y:Person)",
    "TRAIL (x:Person) [-[e:knows]->]{1,2} (y:Person)",
    "TRAIL (x:Person) [(a) -[e:knows]-> (b)]{1,2} (y:Person)",
    "TRAIL (x:Person) [-[e:knows]-> -[f:knows]->]{1,2} (y:Person)",
    "SIMPLE (x:Person) [[-[e:knows]->]{1,2} (z:Person)]{1,2} (y:Person)",
    "TRAIL (x:Person) [-[e:knows]-> + -[f:lives_in]->] (y)",
    "SIMPLE (x:Person) ~[m:married]~ (y:Person)",
    "SHORTEST (x:Person) -[:knows]->{1,} (y:Person)",
    "p = TRAIL (x:Person) -[:knows]-> (y:Person)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL (y:Person) -[:lives_in]-> (c:City)",
    "p = TRAIL (x:Person) -[e:knows]-> (y:Person), "
    "q = TRAIL (y:Person) [-[f:knows]->]{1,2} (z:Person)",
]

#: The group query of the answer-heavy workload and its flat twin.
RING_GROUP = "SHORTEST (x:Probe) -[e:next]->{1,8} (y)"
RING_FLAT = "SHORTEST (x:Probe) -[:next]->{1,8} (y)"

#: On :func:`self_loop`, ``e``'s one entry is the walk's second step,
#: which holds the same portion as its first.
SELF_LOOP = "SHORTEST (x) -> -[e]->{1,2} (y)"


def ring(segments: int = 10, segment: int = 50) -> PropertyGraph:
    """Disjoint ``next`` chains, each starting at a ``Probe``."""
    graph = PropertyGraph()
    nodes = [
        graph.add_node(f"n{i}", ["Probe"] if i % segment == 0 else [])
        for i in range(segments * segment)
    ]
    for i in range(len(nodes) - 1):
        if (i + 1) % segment:
            graph.add_edge(f"next{i}", nodes[i], nodes[i + 1], ["next"])
    return graph


def self_loop() -> PropertyGraph:
    """One node ``a`` with one edge ``r`` from ``a`` to itself."""
    return GraphBuilder().node("a").edge("a", "a", "r").build()


def exact_graph(text: str, social: PropertyGraph) -> PropertyGraph:
    """The graph :data:`EXACT`'s query ``text`` is evaluated on."""
    return ring(4, 12) if text == RING_GROUP else self_loop() if text == SELF_LOOP else social


def _eager(answers):
    """``answers`` with every list rebuilt from its entries."""
    def value(item):
        if isinstance(item, GroupValue):
            return GroupValue(tuple((p, value(v)) for p, v in item.entries))
        return item

    return frozenset(
        Answer(a.paths, Assignment({k: value(v) for k, v in a.assignment.items()}))
        for a in answers
    )


@pytest.fixture(scope="module")
def social():
    return social_network(num_people=12, friend_degree=2, seed=5)


@pytest.fixture(scope="module")
def engine_sets(social):
    """Every query of :data:`QUERIES`, evaluated once."""
    evaluator = Evaluator(social)
    return {text: evaluator.evaluate(parse_query(text)) for text in QUERIES}


def _through_json(answers):
    return json.loads(wire.render_answers(answers))


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
        with pytest.raises(WireError):  # ... in a table too
            wire.encode_answers({Answer((Path.node(NodeId(frozenset({1}))),), Assignment())})

    def test_an_id_inside_a_key_is_refused_as_an_id(self):
        # An id is a tuple too; it must not be sent as a tagged tuple.
        with pytest.raises(WireError, match=r"node\('x'\) \(NodeId\)"):
            wire.encode_id(DirectedEdgeId(("t", NodeId("x"))))

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


def _node(key, **bindings):
    return Answer((Path.node(NodeId(key)),), Assignment(bindings))


class TestValues:
    def test_every_value_sort_round_trips(self):
        a, b, c = NodeId("a"), NodeId("b"), NodeId("c")
        e, u = DirectedEdgeId("e"), UndirectedEdgeId("u")
        path = Path.of(a, e, b, u, c)
        values = {
            "node": a,
            "edge": u,
            "nothing": Nothing,
            "path": path,
            "run": GroupValue(((path.subpath(0, 1), e), (path.subpath(1, 2), u))),
            "targets": GroupValue(((path.subpath(0, 1), b), (path.subpath(1, 2), c))),
            "edgeless": GroupValue(((Path.node(a), a), (path.subpath(0, 1), e))),
            "nested": GroupValue(((path, GroupValue(((path.subpath(0, 1), Nothing),))),)),
            "empty": GroupValue(),
        }
        answers = frozenset({Answer((path,), Assignment(values))})
        payload = _through_json(answers)
        assert wire.decode_answers(payload) == answers
        mu = payload["mu"]
        assert mu["run"] == [[0, 5, 1]] and mu["targets"] == [[0, 5, 2]]
        assert mu["nothing"] == [None] and mu["empty"] == [[]]
        assert mu["path"] == [{"p": payload["paths"]}]

    def test_elements_outside_every_path_are_tabled(self):
        # Not an engine answer (Definition 7 draws values from the
        # answer's own paths), but the codec stays total.
        stray = Path.of(NodeId("s"), DirectedEdgeId("t"), NodeId("s"))
        answers = frozenset(
            {
                _node("a", x=NodeId("z"), g=GroupValue(((stray, Nothing),))),
                _node("b", x=NodeId("a"), g=GroupValue()),
            }
        )
        payload = _through_json(answers)
        assert payload["elements"]["n"] == ["a", "b", "s", "z"]
        assert wire.decode_answers(payload) == answers

    def test_equal_ids_with_unequal_keys_ship_one_key(self):
        # NodeId(1) == NodeId(1.0): whichever object the set holds, the
        # table carries the key with the smaller repr.
        one = frozenset({_node(1, x=NodeId(1.0))})
        other = frozenset({_node(1.0, x=NodeId(1))})
        assert one == other
        assert wire.render_answers(one) == wire.render_answers(other)
        assert _through_json(one)["elements"]["n"] == [1]

    def test_answers_of_one_set_share_arity_and_variables(self):
        with pytest.raises(WireError):
            wire.encode_answers({_node("a", x=NodeId("a")), _node("b")})
        two = Answer((Path.node(NodeId("a")), Path.node(NodeId("b"))), Assignment())
        with pytest.raises(WireError):
            wire.encode_answers({_node("a"), two})

    def test_unencodable_value_rejected(self):
        with pytest.raises(WireError):
            wire.encode_answers({_node("a", x="not a value")})


class TestAnswerSetRoundTrip:
    @pytest.mark.parametrize("text", QUERIES)
    def test_engine_answers_round_trip(self, engine_sets, text):
        answers = engine_sets[text]
        assert answers
        assert wire.decode_answers(_through_json(answers)) == answers

    @pytest.mark.parametrize("text", QUERIES)
    def test_encoding_is_deterministic(self, engine_sets, text):
        answers = engine_sets[text]
        # Rebuild the frozenset in a different insertion order: the
        # serialised bytes must not change.
        reordered = frozenset(sorted(answers, key=repr, reverse=True))
        assert wire.render_answers(answers) == wire.render_answers(reordered)

    @pytest.mark.parametrize("text", QUERIES)
    def test_each_distinct_element_is_shipped_once(self, engine_sets, text):
        answers = engine_sets[text]
        columns = wire.encode_answers(answers)["elements"]
        mentioned = {
            element
            for answer in answers
            for path in answer.paths
            for element in path.elements
        }
        for tag, sort in (("n", NodeId), ("d", DirectedEdgeId), ("u", UndirectedEdgeId)):
            keys = columns[tag]
            assert keys == sorted(keys)  # the rank: each sort by key
            assert {sort(key) for key in keys} == {e for e in mentioned if type(e) is sort}
            assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("text", QUERIES)
    def test_rendered_bytes_plus_version_is_the_whole_payload(self, engine_sets, text):
        answers = engine_sets[text]
        payload = wire.encode_answers(answers)
        payload["version"] = 41
        whole = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert wire.with_version(wire.render_answers(answers), 41) == whole

    def test_paths_are_flat_with_lengths_and_arity(self, engine_sets):
        join = engine_sets[QUERIES[9]]
        payload = wire.encode_answers(join)
        assert payload["arity"] == 2 and payload["count"] == len(join)
        assert len(payload["lengths"]) == 2 * len(join)
        assert sum(payload["lengths"]) == len(payload["paths"])
        assert all(type(i) is int for i in payload["paths"])

    def test_empty_answer_set(self):
        payload = wire.encode_answers(frozenset())
        assert payload["count"] == 0
        assert payload["elements"] == {"n": [], "d": [], "u": []}
        assert wire.decode_answers(payload) == frozenset()

    def test_format_checked(self):
        payload = wire.encode_answers(frozenset())
        for bad in ({**payload, "format": "something-else"}, {"answers": []}, [], None):
            with pytest.raises(WireError):
                wire.decode_answers(bad)

    def test_old_formats_are_not_decoded(self):
        old = {
            "format": "repro/answers@2",
            "count": 1,
            "elements": [{"n": "a"}],
            "answers": [{"paths": [[0]], "mu": {}}],
        }
        with pytest.raises(WireError):
            wire.decode_answers(old)
        # ... and not under the new marker either.
        with pytest.raises(WireError):
            wire.decode_answers({**old, "format": wire.FORMAT})

    def test_assignment_variables_preserved(self):
        graph = (
            GraphBuilder()
            .node("a", "P")
            .node("b", "P")
            .edge("a", "b", "r")
            .build()
        )
        answers = Evaluator(graph).evaluate(parse_query("TRAIL (x:P) -[e:r]-> (y:P)"))
        decoded = wire.decode_answers(wire.encode_answers(answers))
        answer = next(iter(decoded))
        assert answer["x"] == NodeId("a")
        assert isinstance(answer["e"], DirectedEdgeId)
        assert answer["y"] == NodeId("b")
        assert isinstance(answer.assignment, Assignment)


class TestGroupRuns:
    """``-[e]->{1,8}`` binds ``e`` to the one-edge portions of the
    answer's path: the payload says so in one ``[begin, end, offset]``."""

    @pytest.fixture(scope="class")
    def ring_sets(self):
        evaluator = Evaluator(ring())
        return {text: evaluator.evaluate(parse_query(text)) for text in (RING_GROUP, RING_FLAT)}

    def test_group_ships_as_runs(self, ring_sets):
        group = ring_sets[RING_GROUP]
        payload = _through_json(group)
        for run, length in zip(payload["mu"]["e"], payload["lengths"]):
            assert run == [0, length, 1]
        assert wire.decode_answers(payload) == group

    def test_a_run_starts_at_the_first_occurrence_of_its_portion(self):
        # The witness pass stores e's entry at offsets (2, 5); the bytes
        # must not depend on how a list was built, so the run names the
        # first window position holding that portion, as for the eager
        # rebuild, which has no offsets.
        answers = Evaluator(self_loop()).evaluate(parse_query(SELF_LOOP))
        payload = _through_json(answers)
        assert payload["mu"]["e"] == [[0, 3, 1]]
        assert wire.render_answers(answers) == wire.render_answers(_eager(answers))
        assert wire.decode_answers(payload) == answers == _eager(answers)

    def test_group_payload_is_close_to_the_flat_one(self, ring_sets):
        group, flat = ring_sets[RING_GROUP], ring_sets[RING_FLAT]
        assert {a.paths for a in group} == {a.paths for a in flat}
        group_bytes = len(wire.render_answers(group))
        flat_bytes = len(wire.render_answers(flat))
        assert group_bytes <= 1.25 * flat_bytes, (group_bytes, flat_bytes)


# ---------------------------------------------------------------------------
# Exactness over engine-produced sets
# ---------------------------------------------------------------------------

#: The engine sets of the exactness property: joins, runs, nested and
#: multi-edge groups, Nothing from a union, named path variables.
EXACT = [QUERIES[i] for i in (2, 3, 4, 5, 9, 10)] + [RING_GROUP, SELF_LOOP]


@pytest.fixture(scope="module")
def exact_sets(social):
    return {
        text: Evaluator(exact_graph(text, social)).evaluate(parse_query(text))
        for text in EXACT
    }


class TestExactness:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(EXACT), st.randoms(use_true_random=False))
    def test_round_trip_and_bytes_of_any_subset(self, exact_sets, text, rng):
        # A subset of an expression's answers is an answer set of the
        # same shape; any build order, and either way of building its
        # lists, gives the same bytes.
        answers = list(exact_sets[text])
        rng.shuffle(answers)
        subset = answers[: rng.randint(0, len(answers))]
        blob = wire.render_answers(frozenset(subset))
        assert wire.decode_answers(json.loads(blob)) == frozenset(subset)
        assert wire.render_answers(_eager(subset)) == blob
        rng.shuffle(subset)
        assert wire.render_answers(frozenset(subset)) == blob
        assert wire.render_answers(reversed(subset)) == blob

    def test_bytes_do_not_depend_on_the_hash_seed(self, exact_sets):
        script = (
            "import hashlib, sys\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "from test_wire import EXACT, Evaluator, exact_graph, parse_query, wire\n"
            "from test_wire import social_network\n"
            "social = social_network(num_people=12, friend_degree=2, seed=5)\n"
            "for text in EXACT:\n"
            "    answers = Evaluator(exact_graph(text, social)).evaluate(parse_query(text))\n"
            "    print(hashlib.sha256(wire.render_answers(answers)).hexdigest())\n"
        )
        src = str(FsPath(wire.__file__).resolve().parents[2])
        here = str(FsPath(__file__).resolve().parent)
        digests = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-c", script, src, here],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.append(done.stdout.split())
        expected = [
            hashlib.sha256(wire.render_answers(exact_sets[text])).hexdigest() for text in EXACT
        ]
        assert digests[0] == digests[1] == expected


# ---------------------------------------------------------------------------
# Hostile payloads
# ---------------------------------------------------------------------------


def _payload():
    """Two answers of arity 2 over one table ``a b c e f``: ``b`` then
    ``c -f-> a`` (listed first: shorter first path), and ``a -e-> b``
    then ``c``; ``g`` is a run."""
    a, b, c = NodeId("a"), NodeId("b"), NodeId("c")
    e, f = DirectedEdgeId("e"), DirectedEdgeId("f")
    ab, ca = Path.of(a, e, b), Path.of(c, f, a)
    answers = frozenset(
        {
            Answer((ab, Path.node(c)), Assignment({"x": a, "g": GroupValue(((ab, e),))})),
            Answer((Path.node(b), ca), Assignment({"x": b, "g": GroupValue(((ca, f),))})),
        }
    )
    return answers, _through_json(answers)


def _mutated(**changes):
    payload = _payload()[1]
    payload.update(changes)
    return payload


class TestHostilePayloads:
    def test_the_base_payload_decodes(self):
        answers, payload = _payload()
        assert payload["paths"] == [1, 2, 4, 0, 0, 3, 1, 2]
        assert payload["lengths"] == [1, 3, 3, 1]
        assert payload["mu"] == {"g": [[1, 4, 1], [0, 3, 1]], "x": [1, 0]}
        assert wire.decode_answers(payload) == answers

    @pytest.mark.parametrize("bad", [True, 1.0, -1, 5, "0", [0]])
    @pytest.mark.parametrize("where", ["paths", "x", "run", "lengths", "listed"])
    def test_hostile_index(self, bad, where):
        payload = _payload()[1]
        if where == "paths":
            payload["paths"][0] = bad
        elif where == "x":
            payload["mu"]["x"][0] = bad
        elif where == "run":
            payload["mu"]["g"][0][0] = bad
        elif where == "lengths":
            payload["lengths"][0] = bad
        else:
            payload["mu"]["x"][0] = {"p": [bad]}
        with pytest.raises(WireError):
            wire.decode_answers(payload)

    @pytest.mark.parametrize(
        "changes",
        [
            {"paths": [1, 2, 4, 0, 0, 1, 3, 2]},  # broken alternation
            {"paths": [1, 2, 4, 0, 0, 3, 1, 3]},  # an edge where a node must be
            {"paths": [None, 2, 4, 0, 0, 3, 1, 2]},
            {"lengths": [3, 1, 1, 1]},  # lengths that do not sum
            {"lengths": [1, 3, 2, 2]},  # paths of even length
            {"lengths": [1, 3, 3, 1, 0]},  # one length too many
            {"count": 3},
            {"count": 1},
            {"count": True},
            {"count": 2.0},
            {"arity": 1},
            {"arity": 4},
            {"arity": 0},
            {"arity": None},
            {"elements": {"n": ["a", "b", "c"], "d": ["e", "f"], "u": [], "x": []}},
            {"elements": {"n": ["a", "b", "c"], "d": ["e", "f"]}},
            {"elements": {"n": ["a", "b"], "d": ["e", "f"], "u": []}},
            {"elements": {"n": "abc", "d": ["e", "f"], "u": []}},
            {"elements": {"n": ["a", "b", [1]], "d": ["e", "f"], "u": []}},
            {"elements": [{"n": "a"}]},
            {"mu": {"x": [0]}},
            {"mu": {"x": [0, 1], "g": [[0, 3, 1]]}},
            {"mu": {"x": "ab"}},
            {"mu": [["x", [0, 1]]]},
        ],
    )
    def test_malformed_shapes(self, changes):
        with pytest.raises(WireError):
            wire.decode_answers(_mutated(**changes))

    @pytest.mark.parametrize(
        "run",
        [
            [4, 1, 1],  # reversed
            [1, 1, 1],  # empty
            [1, 3, 1],  # ends on an edge
            [2, 3, 0],  # starts on an edge
            [1, 5, 1],  # past the answer's window
            [0, 3, 1],  # across the boundary of its two paths
            [-1, 2, 1],
            [1, 4, 3],  # no such offset in a one-edge portion
            [1, 4, -1],
            [1, 4, True],
            [1, 4],
            [1, 4, 1, 1],
        ],
    )
    def test_bad_run(self, run):
        payload = _payload()[1]
        payload["mu"]["g"][0] = run
        with pytest.raises(WireError):
            wire.decode_answers(payload)

    @pytest.mark.parametrize(
        "value",
        [
            {"p": [0, 0]},  # broken alternation
            {"p": []},
            {"p": [0], "s": [0, 1]},
            {"s": [0, 1]},
            {"nothing": True},
            [[[0]]],  # a group entry without its value
            [[[0], 0, 0]],
            [[0, 0]],
            [[[0], 0], 7],
            False,
            2.5,
        ],
    )
    def test_bad_value(self, value):
        payload = _payload()[1]
        payload["mu"]["x"][0] = value
        with pytest.raises(WireError):
            wire.decode_answers(payload)

    def test_deep_nesting_is_a_wire_error(self):
        payload = _payload()[1]
        value = 0
        for _ in range(5000):
            value = [[[0], value]]
        payload["mu"]["x"][0] = value
        with pytest.raises(WireError):
            wire.decode_answers(payload)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False) | st.text("nduxp", max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("nduxpt", max_size=2), inner, max_size=3),
    max_leaves=12,
)


def _spots(node, out):
    """Every ``(container, key)`` of a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        out.append((node, key))
        _spots(child, out)
    return out


class TestFuzz:
    """Whatever arrives, ``decode_answers`` returns a frozenset or raises
    ``WireError`` — never ``TypeError``, ``IndexError``, ``KeyError``."""

    @settings(max_examples=300, deadline=None)
    @given(_json_values)
    def test_arbitrary_json(self, data):
        for candidate in (data, {**_payload()[1], "mu": data}, {"format": wire.FORMAT, "x": data}):
            try:
                assert isinstance(wire.decode_answers(candidate), frozenset)
            except WireError:
                pass

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["base", *EXACT[:5]]), st.data())
    def test_mutated_payloads(self, exact_sets, base, data):
        payload = _payload()[1] if base == "base" else _through_json(exact_sets[base])
        payload = copy.deepcopy(payload)
        for _ in range(data.draw(st.integers(1, 3))):
            container, key = data.draw(st.sampled_from(_spots(payload, [])))
            action = data.draw(st.sampled_from(["replace", "nudge", "delete"]))
            if action == "replace":
                container[key] = data.draw(_json_values)
            elif action == "nudge" and type(container[key]) is int:
                container[key] += data.draw(st.sampled_from([-2, -1, 1, 2]))
            elif action == "delete":
                del container[key]
        try:
            assert isinstance(wire.decode_answers(payload), frozenset)
        except WireError:
            pass


# ---------------------------------------------------------------------------
# Property: any rectangular answer set over a small shared pool of elements
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
    """Answers of one arity and one domain whose paths, assignments and
    (nested) groups all draw from one small pool — so elements are
    shared within and across answers, values may name elements of no
    path, and keys that are ``==`` across types (``True``/``1``/``1.0``)
    meet in one table."""
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

    def value(depth, paths):
        kind = draw(st.sampled_from("nepxgr" if depth else "nepx"))
        if kind == "n":
            return draw(st.sampled_from(nodes))
        if kind == "e":
            return draw(st.sampled_from(edges))
        if kind == "p":
            return path()
        if kind == "x":
            return Nothing
        if kind == "r":  # the one-edge portions of one of the answer's paths
            walk = draw(st.sampled_from(paths))
            offset = draw(st.integers(0, 2))
            return GroupValue(
                tuple(
                    (walk.subpath(i, i + 1), walk.subpath(i, i + 1).elements[offset])
                    for i in range(len(walk))
                )
            )
        return GroupValue(
            tuple((path(1), value(depth - 1, paths)) for _ in range(draw(st.integers(0, 2))))
        )

    arity = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from("xyzw"), max_size=3, unique=True))
    answers = []
    for _ in range(draw(st.integers(0, 6))):
        paths = tuple(path() for _ in range(arity))
        answers.append(Answer(paths, Assignment({n: value(2, paths) for n in names})))
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
        table = json.loads(blob)["elements"]
        for tag, sort in (("n", NodeId), ("d", DirectedEdgeId), ("u", UndirectedEdgeId)):
            ids = [wire.decode_id({tag: key}) for key in table[tag]]
            assert len(ids) == len(set(ids)) and all(type(i) is sort for i in ids)
