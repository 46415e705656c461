"""One plan per query shape: differential tests.

A text's shape is its token sequence with every constant lifted out,
plus which constants are ``==`` (:func:`repro.gpc.parser.query_shape`).
:class:`~repro.service.GraphService` builds one plan per shape and
binds each later text's constants into it, so every check here asks a
shaped service for answers and compares them with a fresh
``Evaluator(graph).evaluate(parse_query(text))`` and, where the
bounded denotation is cheap, with the specification
(:func:`reference.reference_answers`).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_answers
from repro.errors import ParseError
from repro.gpc.engine import Evaluator
from repro.gpc.parser import parse_query, query_shape
from repro.graph.builder import GraphBuilder
from repro.service import GraphService, PreparedQuery

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "layers"))
from layersbench.workloads import (  # noqa: E402
    POINT_CONSTANTS,
    POINT_LOOKUP,
    point_text,
    transport_graph,
)

#: Read by the bounded reference; deeper ``shortest`` pairs are cut.
HORIZON = 3


def assert_served_right(service: GraphService, text: str, reference=True) -> None:
    query = parse_query(text)
    answers = service.evaluate(text)
    assert answers == Evaluator(service.graph).evaluate(query), text
    if reference:
        assert answers == reference_answers(service.graph, query, HORIZON), text


# ---------------------------------------------------------------------------
# The benchmark's point lookups
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def transport():
    return transport_graph(1, "tiny")


def test_every_tiny_point_lookup_text(transport):
    service = GraphService(transport)
    for template in POINT_LOOKUP:
        for i in range(POINT_CONSTANTS["tiny"]):
            # A bare SHORTEST over ->{1,} is too wide for the reference.
            assert_served_right(
                service,
                point_text(template, i),
                reference=not template.startswith("pl_shortest"),
            )
    assert service.stats.plan_cache.misses == len(POINT_LOOKUP)


def test_a_full_point_lookup_pass_holds_five_plans(transport):
    service = GraphService(transport)
    for template in POINT_LOOKUP:
        for i in range(POINT_CONSTANTS["full"]):
            service.prepare(point_text(template, i))
    assert len(service._plan_cache) == len(POINT_LOOKUP) == 5
    assert service.stats.plan_cache.misses == 5


def test_the_partition_keys_the_plan(transport):
    """``pl_proven_empty`` is empty because ``c != 1099``: the text with
    ``c = 1099`` is another shape, which the analyzer does not prove
    empty. With a constant the data carries, the answers show it."""
    service = GraphService(transport)
    service.evaluate(point_text("pl_proven_empty", 5))
    assert service.stats.engine.queries_proven_empty == 1
    assert_served_right(service, point_text("pl_proven_empty", 1099))
    assert service.stats.engine.queries_proven_empty == 1
    both = "SIMPLE [(x:Station) -[e:link]-> (y:Station)] << e.minutes = {} AND e.minutes = {} >>"
    assert service.evaluate(both.format(5, 3)) == frozenset()
    assert_served_right(service, both.format(3, 3))
    assert service.evaluate(both.format(3, 3))
    # Two shapes: two distinct constants, and one constant twice.
    assert service.stats.plan_cache.misses == 2


# ---------------------------------------------------------------------------
# Constants of every kind, on a graph that stores every kind
# ---------------------------------------------------------------------------

#: Property values: ``1``, ``1.0`` and ``True`` are ``==``, so are the
#: strings that differ only in how a text quotes them.
STORED = (0, 1, 1.0, True, False, -2, 2.5, "a", "it's", 'say "hi"', "back\\slash", "TRUE")

#: Spellings of constants, repeats and collisions included.
LITERALS = (
    "0", "1", "1.0", "TRUE", "true", "FALSE", "-2", "2.5", "-2.5", "7",
    "'a'", '"a"', "'it\\'s'", '"it\'s"', "'say \"hi\"'", "'back\\\\slash'", "'TRUE'",
)


def _mixed_graph():
    builder = GraphBuilder()
    for i, value in enumerate(STORED):
        labels = ("P",) if i % 2 else ("P", "Q")
        builder.node(f"n{i}", *labels, k=value, TRUE=i % 3)
    builder.node("bare", "TRUE")
    for i in range(len(STORED)):
        target = f"n{(i * 5 + 1) % len(STORED)}"
        builder.edge(f"n{i}", target, "r", key=f"e{i}", w=STORED[(i + 3) % len(STORED)])
    builder.edge("bare", "n1", "r", key="eb")
    return builder.build()


MIXED = _mixed_graph()
#: Shared by every example, so later texts bind into earlier shapes.
SHAPED = GraphService(MIXED)

PATTERNS = (
    "TRAIL [(x) -[e]-> (y)] << {} >>",
    "SIMPLE [(x:P) -[e:r]-> (y)] << {} >>",
    "SHORTEST [(x) -[e]-> (y)] << {} >>",
)


def _atoms(edge: bool):
    variables = ("x", "y", "e") if edge else ("x", "y")

    def atom(variable, literal):
        return f"{variable}.{'w' if variable == 'e' else 'k'} = {literal}"

    return st.one_of(
        st.builds(atom, st.sampled_from(variables), st.sampled_from(LITERALS)),
        st.just("x.k = y.k"),
    )


def _conditions(edge: bool):
    return st.recursive(
        _atoms(edge),
        lambda inner: st.one_of(
            st.builds("({} AND {})".format, inner, inner),
            st.builds("({} OR {})".format, inner, inner),
            st.builds("NOT {}".format, inner),
        ),
        max_leaves=4,
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PATTERNS), _conditions(edge=True))
def test_constants_of_every_kind(pattern, condition):
    assert_served_right(SHAPED, pattern.format(condition))


@settings(max_examples=40, deadline=None)
@given(_conditions(edge=False))
def test_constants_in_a_shortest_search(condition):
    assert_served_right(SHAPED, f"SHORTEST [(x:P) ->{{1,3}} (y)] << {condition} >>")


def test_the_operator_is_part_of_the_shape():
    service = GraphService(MIXED)
    for operator in ("AND", "OR"):
        assert_served_right(service, f"TRAIL [(x) -[e]-> (y)] << x.k = 1 {operator} y.k = 'a' >>")
    assert service.stats.plan_cache.misses == 2


def test_keywords_in_label_and_key_position():
    service = GraphService(MIXED)
    for constant, value in (("0", 0), ("1", 1), ("2", 2), ("TRUE", True)):
        text = f"TRAIL [(x:TRUE) -> (y)] << y.TRUE = {constant} >>"
        assert_served_right(service, text)
        assert query_shape(text)[1] == (value,)
    assert service.stats.plan_cache.misses == 2  # TRUE is another kind
    assert "TRUE" in query_shape("TRAIL (x:TRUE) -> (y) << y.TRUE = 1 >>")[0]


def test_a_property_comparison_is_not_lifted():
    text = "TRAIL [(x) -[e]-> (y)] << x.k = y.k >>"
    assert query_shape(text)[1] == ()
    assert_served_right(GraphService(MIXED), text)


# ---------------------------------------------------------------------------
# What a bound text answers besides its answers
# ---------------------------------------------------------------------------


def test_parse_errors_keep_their_positions():
    service = GraphService(MIXED)
    service.prepare("TRAIL (x) << x.k = 1 >>")
    for text in ("TRAIL (x) << x.k = 2 AND >>", "TRAIL (x) << x.k = 'a' >> )", "TRAIL (x) << x.k = # >>"):
        with pytest.raises(ParseError) as expected:
            parse_query(text)
        with pytest.raises(ParseError) as raised:
            service.evaluate(text)
        assert (str(raised.value), raised.value.position) == (
            str(expected.value),
            expected.value.position,
        )


def test_a_bound_text_reads_as_its_own_and_leaves_the_plan_alone():
    service = GraphService(MIXED)
    first = "TRAIL [(x:P) -[e]-> (y)] << e.w = 1 AND x.k = 'a' >>"
    service.evaluate(first)
    text = "TRAIL [(x:P) -[e]-> (y)] << e.w = TRUE AND x.k = 'it\\'s' >>"
    bound = service.prepare(text)
    plan = bound.plan
    entries = (len(plan._patterns), len(plan._analyses), len(plan._typechecked))
    fresh = PreparedQuery(text)
    assert bound.query == fresh.query == parse_query(text)
    assert bound.diagnostics == fresh.diagnostics
    assert bound.explain(MIXED) == fresh.explain(MIXED)
    assert bound.explain() == fresh.explain()
    assert (len(plan._patterns), len(plan._analyses), len(plan._typechecked)) == entries
