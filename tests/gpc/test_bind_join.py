"""The bind join: a join whose right side starts at a shared variable
is evaluated with that side restricted to the left answers' values of
it. Answers must equal the specification's and the planner-off nested
loop; a right side that does not open with such a node pattern must not
bind; ``explain`` names the bound variable in one line."""

from __future__ import annotations

import pytest

from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_query
from repro.gpc.planner import bind_variable, join_shared_variables
from repro.graph.generators import social_network, transport_network
from repro.obs import EvalCounters, use_counters
from reference import reference_answers

NAIVE = EngineConfig(use_planner=False)

JOIN_CITY = (
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL (y:Person) -[:lives_in]-> (c:City)"
)
PL_JOIN = (
    "TRAIL [(x:Hub) -[e:link]-> (y:Station)] << e.minutes = 3 >>, "
    "TRAIL (y:Station) -[:link]-> (z:Station)"
)
#: Right sides whose paths do not all start at the shared variable.
UNBOUND = (
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL [(y:Person) -[:lives_in]-> (c) + (y:Person) -[:knows]-> (c)]",
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL [(u:Person) -[:knows]->]{0,1} (y:Person) -[:lives_in]-> (c:City)",
    "TRAIL (x:Person) -[:knows]-> (y:Person), "
    "TRAIL (c:City) <-[:lives_in]- (y:Person)",
)


def _social():
    return social_network(num_people=14, num_cities=3, friend_degree=2, seed=5)


def _transport():
    return transport_network(lines=6, stops_per_line=8, seed=1)


def _check(graph, text):
    query = parse_query(text)
    planned = Evaluator(graph).evaluate(query)
    assert planned == Evaluator(graph, NAIVE).evaluate(query), text
    assert planned == reference_answers(graph, query, horizon=4), text
    return query, planned


@pytest.mark.parametrize(
    "make, text, bound, prunes",
    # Every person is known by someone, so join_city's bind prunes
    # nothing on this graph; pl_join's few hubs leave most stations out.
    [(_social, JOIN_CITY, "y", False), (_transport, PL_JOIN, "y", True)],
)
def test_a_bound_join_answers_as_the_specification(make, text, bound, prunes):
    graph = make()
    query, answers = _check(graph, text)
    assert answers
    assert bind_variable(query, join_shared_variables(query)) == bound
    # A restricted left side runs first, and the right side is searched
    # from its answers' values of the bound variable only: the join
    # hashes and probes exactly the left answers and the right answers
    # that combine.
    left = Evaluator(graph).evaluate(query.left)
    starts = {answer.assignment[bound] for answer in left}
    right = Evaluator(graph).evaluate(query.right)
    joinable = [a for a in right if a.assignment[bound] in starts]
    counters = EvalCounters()
    with use_counters(counters):
        restricted = Evaluator(graph).evaluate(
            query, start_restriction=frozenset(graph.nodes)
        )
    assert restricted == answers
    assert counters.join_build_rows + counters.join_probe_rows == len(left) + len(
        joinable
    )
    assert (len(joinable) < len(right)) == prunes


@pytest.mark.parametrize("text", UNBOUND)
def test_a_right_side_not_opening_at_the_shared_variable_does_not_bind(text):
    graph = _social()
    query, _answers = _check(graph, text)
    assert bind_variable(query, join_shared_variables(query)) is None
    assert "bind join" not in Evaluator(graph).plan.explain(query, graph)


def test_explain_gains_one_line_naming_the_bound_variable():
    graph = _social()
    evaluator = Evaluator(graph)
    bound = evaluator.plan.explain(parse_query(JOIN_CITY), graph).splitlines()
    assert [line.strip() for line in bound if "bind join" in line] == [
        "- bind join on y: when the left side runs first, the right side"
        " starts at its values of y"
    ]
    # The same join with its right side reversed cannot bind.
    unbound = evaluator.plan.explain(parse_query(UNBOUND[2]), graph).splitlines()
    assert len(bound) == len(unbound) + 1


def test_a_restricted_join_equals_the_filtered_join():
    graph = _social()
    query = parse_query(JOIN_CITY)
    full = Evaluator(graph).evaluate(query)
    for restriction in (frozenset(), frozenset(sorted(graph.nodes)[:4])):
        restricted = Evaluator(graph).evaluate(query, start_restriction=restriction)
        assert restricted == {a for a in full if a.paths[0].src in restriction}
