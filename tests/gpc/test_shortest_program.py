"""The one lowered ``shortest`` program: which registers it tracks,
what it folds, and that its search and witness pass equal the oracles
of :mod:`reference` on pristine and derived snapshots."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    assert_equal_reference,
    assert_runs_equal_the_matcher,
    random_graph,
    reference_answers,
    reference_witnesses,
)
from repro.cluster import ClusterService
from repro.errors import (
    DeadlineExceededError,
    EvaluationLimitError,
    GPCError,
    UnknownIdError,
)
from repro.extensions.arithmetic import ArithConditioned, TermConst
from repro.extensions.label_expressions import LabelAtom, LabelOr, NodeWithLabelExpr
from repro.gpc import ast, register_nfa
from repro.gpc.collect import CollectMode
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_pattern, parse_query
from repro.gpc.planner import BOUNDED_FILTER, DEEPENING
from repro.gpc.register_nfa import (
    collect_requirement,
    compile_register_nfa,
    coreachable,
    lower_program,
    shortest_pair_lengths,
    shortest_witnesses,
)
from repro.gpc.semantics import _Limits
from repro.gpc.values import GroupValue, Nothing
from repro.graph import GraphSnapshot, PropertyGraph
from repro.graph.builder import GraphBuilder
from repro.graph.columns import and_masks
from repro.graph.generators import chain_graph, complete_graph
from repro.graph.ids import DirectedEdgeId
from repro.graph.ids import NodeId as N
from repro.obs import EvalCounters, use_counters
from repro.obs.deadline import deadline_scope
from repro.service import GraphService


def _tracked(text, pushdown=True):
    nfa = compile_register_nfa(parse_pattern(text), pushdown=pushdown)
    return {
        variable: why if isinstance(why, int) else "check"
        for variable, why in nfa.constraining.items()
    }


class TestTrackedRegisters:
    """``RegisterNFA.constraining``: the variables the length search
    carries, and why."""

    def test_read_by_a_residual_check(self):
        text = "[(x) ->{1,} (y)] << x.k = y.k >>"
        assert _tracked(text) == {"x": "check", "y": "check"}

    def test_a_pushed_atom_is_not_a_read(self):
        text = "[(x) ->{1,} (y)] << x.k = 1 >>"
        assert _tracked(text) == {}
        assert _tracked(text, pushdown=False) == {"x": "check"}

    def test_a_join_has_two_sites(self):
        assert _tracked("(x) -> (x)") == {"x": 2}
        assert _tracked("-[e]-> <-[e]-") == {"e": 2}

    def test_single_site_inside_an_unbounded_body(self):
        # {0,} unrolls one body copy: the loop re-enters it through
        # its reset, so the one site always binds afresh.
        assert _tracked("(x) [-[e]-> (z)]{0,} (y)") == {}

    def test_repeat_copies_are_sites(self):
        # ... of which only the first counts: unrolled copies are one
        # syntactic site, and a run enters each through the reset of
        # the one before, register unbound.
        for text in ("(x) -[e]->{1,8} (y)", "(x) -[e]->{1,} (y)"):
            assert _tracked(text) == {}
        nfa = compile_register_nfa(parse_pattern("(x) -[e]->{1,8} (y)"))
        assert nfa.sites == {"x": 1, "e": 1, "y": 1}
        # Nested repeats compose: 2 x 3 copies of one site.
        assert _tracked("[[-[e]-> (z)]{1,3}]{2,2}") == {}
        # A variable without any site is still a key.
        nfa = compile_register_nfa(parse_pattern("(x) -[e]->{0,0} (y)"))
        assert nfa.sites == {"x": 1, "e": 0, "y": 1}

    def test_two_sites_in_one_body_are_two_sites(self):
        # Counted once per body, not once per copy.
        assert _tracked("[(z) -> (z)]{1,2}") == {"z": 2}
        assert _tracked("[-[e]-> + <-[e]-]{1,}") == {"e": 2}
        assert _tracked("[[(z) -> (z)]{1,3}]{2,2}") == {"z": 2}

    def test_union_branches_are_sites(self):
        assert _tracked("[(x:A) -> (y) + (x:B) <- (y)]") == {"x": 2, "y": 2}
        assert _tracked("[(x:A) + (y:B)] -> (z)") == {}

    def test_the_search_lowers_with_exactly_that_set(self):
        graph = chain_graph(3)
        nfa = compile_register_nfa(parse_pattern("(x) [(z) -[e]-> (z)]{2,2} (x)"))
        program = lower_program(nfa, graph.snapshot())
        assert program.tracked == ("x", "z")
        everything = program.retracked(nfa.sites)
        assert everything.tracked == ("e", "x", "z")
        nfa = compile_register_nfa(parse_pattern("(x) -> (x) <- (x)"))
        program = lower_program(nfa, graph.snapshot())
        assert program.tracked == ("x",)
        assert program.retracked(nfa.sites) is program
        nfa = compile_register_nfa(parse_pattern("(x) -[e]->{1,8} (y)"))
        program = lower_program(nfa, graph.snapshot())
        # Nothing tracked: the boundary ops of the repeat fold away too.
        assert program.tracked == () and not any(program.arcs)
        everything = program.retracked(nfa.sites)
        assert everything.tracked == ("e", "x", "y")
        # The lowering is shared, only the folding is redone.
        assert everything.ops is program.ops
        assert everything.rows is program.rows


def _segment(length=6) -> PropertyGraph:
    """One ring segment: ``next`` edges n0 -> ... -> n<length>, a Probe
    at the head, an Adj at the tail, chords on another label."""
    builder = GraphBuilder().node("n0", "Probe", k=0)
    for i in range(1, length + 1):
        builder = builder.node(f"n{i}", *(["Adj"] if i == length else []), k=i % 2)
        builder = builder.edge(f"n{i - 1}", f"n{i}", "next", key=f"next{i - 1}")
    for i in range(length - 1):
        builder = builder.edge(f"n{i}", f"n{i + 2}", "chord", key=f"chord{i}")
    return builder.build()


def _derived(graph: PropertyGraph, mutate) -> GraphSnapshot:
    base = graph.snapshot()
    mutate(graph)
    derived = GraphSnapshot.derive(base, graph.deltas_since(base.version))
    assert derived.derived and derived.overlay_ops
    return derived


def _relabel_a_next_edge(graph: PropertyGraph) -> None:
    """n2 -next-> n3 becomes n2 -detour-> n3 under the same id."""
    edge = next(e for e in graph.directed_edges if e.key == "next2")
    source, target = graph.source(edge), graph.target(edge)
    graph.remove_edge(edge)
    graph.add_edge("next2", source, target, ["detour"])


def _add_an_overlay_only_label(graph: PropertyGraph) -> None:
    """A ``fresh`` edge and a ``Fresh`` node: labels no core element
    carries."""
    nodes = {n.key: n for n in graph.nodes}
    extra = graph.add_node("extra", ["Fresh", "Adj"], {"k": 1})
    graph.add_edge("fresh0", nodes["n1"], extra, ["fresh"])
    graph.add_edge("fresh1", extra, nodes["n4"], ["fresh"])


_CONTRACT_QUERIES = (
    "SHORTEST (x:Probe) -[:next]->{1,} (y:Adj)",
    "SHORTEST [(x:Probe) -[:next]->{1,} (y)] << x.k = y.k >>",
    "SHORTEST (x:Probe) [-[:next]-> + -[:detour]->]{1,} (y:Adj)",
    "SHORTEST (x) -[:fresh]->{1,} (y)",
    "SHORTEST (x:Probe) [-[:next]-> + -[e:fresh]->]{1,} (y:Fresh)",
    "SHORTEST (x) -[e:chord]-> (y) <-[e:chord]- (x)",
)


class TestFilteredCsrContract:
    """``filtered_csr`` knows the core only, so only the row of a clean
    core node is read from it: a relabelled edge, and a label that
    lives in the overlay alone, are found through the accessors."""

    @pytest.mark.parametrize(
        "mutate", [_relabel_a_next_edge, _add_an_overlay_only_label]
    )
    @pytest.mark.parametrize("text", _CONTRACT_QUERIES)
    def test_search_and_witnesses_equal_the_reference(self, mutate, text):
        graph = _segment()
        derived = _derived(graph, mutate)
        query = parse_query(text)
        horizon = graph.num_nodes
        expected = reference_answers(graph, query, horizon)
        assert set(Evaluator(derived).evaluate(query)) == expected
        nfa = compile_register_nfa(query.pattern, pushdown=True)
        program = lower_program(nfa, derived, tracked=nfa.sites)
        for start in derived.nodes:
            best = shortest_pair_lengths(program, start)
            assert best == {
                end: min(
                    len(a.path)
                    for a in expected
                    if (a.path.src, a.path.tgt) == (start, end)
                )
                for end in {a.path.tgt for a in expected if a.path.src == start}
            }
            found = shortest_witnesses(program, start, best)
            assert {
                end: set(walks) for end, walks in found.items()
            } == reference_witnesses(graph, nfa, start, best)

    def test_the_relabelled_edge_is_gone_from_next_walks(self):
        derived = _derived(_segment(), _relabel_a_next_edge)
        query = parse_query(_CONTRACT_QUERIES[0])
        assert not Evaluator(derived).evaluate(query)
        detour = parse_query(_CONTRACT_QUERIES[2])
        (answer,) = Evaluator(derived).evaluate(detour)
        assert len(answer.path) == 6

    def test_a_label_the_core_does_not_know_reads_empty_rows_and_masks(self):
        graph = _segment()
        nfa = compile_register_nfa(parse_pattern("(x) -[:fresh]-> (y:Fresh)"))
        for view in (
            graph.snapshot(),
            _derived(graph, _add_an_overlay_only_label),
        ):
            program = lower_program(nfa, view)
            ((off, edges, _other, *_rest),) = [
                row for rows in program.rows for row in rows
            ]
            assert not edges and not any(off)  # no core edge carries it
            masks = {op[2] for ops in program.ops for op in ops} - {None}
            assert masks == {bytes(len(view.label_mask("next")))}


_READ_OFF_QUERIES = (
    # an ambiguous factorisation: [1][1], [2], [1][2]...
    "SHORTEST (x:Probe) [-[e]-> + -[e]-> -[f]->]{1,} (y:Adj)",
    # a repeat nested in a repeat
    "SHORTEST (x:Probe) [[-[e:next]->]{1,2} (z)]{1,2} (y)",
    # a variable, and a whole inner list, only one union branch binds
    "SHORTEST (x:Probe) [-[e:next]-> + -[f:chord]->]{1,3} (y)",
    "SHORTEST (x:Probe) [[-[e:next]->]{1,2} + -[f:chord]->]{1,2} (y)",
    # no bind site at all, alone and inside a body
    "SHORTEST (x:Probe) -[e]->{0,0} (y)",
    "SHORTEST (x:Probe) [[-[e]->]{0,0} -[f:chord]->]{1,2} (y)",
    # zero iterations of {0,}
    "SHORTEST (x:Probe) [-[e:next]-> (z)]{0,} (y)",
    # a condition inside the body, a list inside a two-variable wrapper
    "SHORTEST (x:Probe) [[-[e]-> (z)] << z.k = 1 >>]{1,3} (y)",
    "SHORTEST [(x:Probe) -[e:chord]->{1,3} (y)] << x.k = y.k >>",
    # undirected steps
    "SHORTEST (x:Probe) ~[e]~{2,3} (y)",
)


class TestGroupReadOff:
    """Iteration boundaries ride the run: a repetition whose every
    iteration consumes an edge yields its lists with the registers."""

    @staticmethod
    def _graph() -> PropertyGraph:
        graph = _segment()
        nodes = {n.key: n for n in graph.nodes}
        graph.add_undirected_edge("u0", nodes["n0"], nodes["n1"], ["link"])
        graph.add_undirected_edge("u1", nodes["n1"], nodes["n3"], ["link"])
        return graph

    @pytest.mark.parametrize("text", _READ_OFF_QUERIES)
    def test_answers_and_runs_equal_the_specification(self, text, view_of):
        query = parse_query(text)
        graph = self._graph()
        views = [view_of(graph), _derived(graph, _add_an_overlay_only_label)]
        horizon = graph.num_nodes
        nfa = compile_register_nfa(query.pattern, pushdown=True)
        for view in views:
            walks = assert_runs_equal_the_matcher(view, query.pattern, nfa, horizon)
            assert set(walks) == set(CollectMode) and all(walks.values())
        for mode in CollectMode:
            expected = reference_answers(graph, query, horizon, mode)
            counters = EvalCounters()
            with use_counters(counters):
                served = Evaluator(
                    views[-1], EngineConfig(collect_mode=mode)
                ).evaluate(query)
            assert expected and set(served) == expected
            assert counters.witnesses == len({a.path for a in served})

    def test_an_iteration_is_the_portion_of_the_walk_it_consumed(self):
        graph = chain_graph(3)
        query = parse_query("SHORTEST (x) [-[e]-> -[f]-> + -[e]->]{2,2} (y)")
        answers = Evaluator(graph).evaluate(
            query, start_restriction={N("n0")}
        )
        by_length = {len(a.path): a for a in answers}
        assert sorted(by_length) == [2, 3] and len(answers) == 3
        # Length 2 is [1][1]; length 3 is [2][1] and [1][2] — told
        # apart by the boundaries alone.
        e = by_length[2]["e"]
        assert [len(portion) for portion in e.paths] == [1, 1]
        assert e.paths[0].tgt == e.paths[1].src == N("n1")
        splits = {
            tuple(len(portion) for portion in a["f"].paths)
            for a in answers
            if len(a.path) == 3
        }
        assert splits == {(2, 1), (1, 2)}
        for answer in answers:
            for variable in "ef":
                portions = answer[variable].paths
                assert portions[0].src == N("n0")
                assert portions[-1].tgt == answer.path.tgt
                assert portions[0].tgt == portions[1].src

    def test_a_branch_that_does_not_bind_is_a_nothing_entry(self):
        graph = self._graph()
        query = parse_query(
            "SHORTEST (x:Probe) [-[e:next]-> + -[f:chord]->]{2,2} (y)"
        )
        (mixed,) = [
            a
            for a in Evaluator(graph).evaluate(query)
            if a.path.tgt == N("n3") and a.path.nodes[1] == N("n1")
        ]
        next0, chord1 = mixed.path.edges
        assert mixed["e"].values == (next0, Nothing)
        assert mixed["f"].values == (Nothing, chord1)
        assert mixed["e"].paths == mixed["f"].paths

    def test_a_variable_without_a_bind_site_is_the_empty_list(self):
        graph = chain_graph(2)
        (alone,) = Evaluator(graph).evaluate(
            parse_query("SHORTEST (x) -[e]->{0,0} (y)"),
            start_restriction={N("n0")},
        )
        assert alone["e"] == GroupValue() and "e" in alone.assignment
        inside = Evaluator(graph).evaluate(
            parse_query("SHORTEST (x) [[-[e]->]{0,0} -[f]->]{2,2} (y)"),
            start_restriction={N("n0")},
        )
        (answer,) = inside
        assert answer["e"].values == (GroupValue(), GroupValue())
        assert answer["e"].paths == answer["f"].paths
        # Zero iterations of {0,}: every body variable, the empty list.
        nothing = min(
            Evaluator(graph).evaluate(
                parse_query("SHORTEST (x) [-[e]-> (z)]{0,} (y)"),
                start_restriction={N("n0")},
            ),
            key=lambda a: len(a.path),
        )
        assert nothing["e"] == nothing["z"] == GroupValue()

    def test_an_overlay_only_edge_inside_a_list(self):
        # Keyed by its id object, not a dense int — and no list.
        graph = _segment()
        derived = _derived(graph, _add_an_overlay_only_label)
        query = parse_query(
            "SHORTEST (x:Probe) [-[e:next]-> + -[e:fresh]->]{1,} (y:Fresh)"
        )
        counters = EvalCounters()
        with use_counters(counters):
            (answer,) = Evaluator(derived).evaluate(query)
        assert counters.witnesses == 1
        assert [edge.key for edge in answer["e"].values] == ["next0", "fresh0"]
        assert {answer} == reference_answers(graph, query, graph.num_nodes)

    def test_what_a_run_cannot_know_runs_the_specification(self, view_of):
        graph = self._graph()
        for text, mode, expected, reason in (
            # Zero inner iterations make an outer one edgeless: Figure 3
            # regroups them, and a run could go round for ever.
            (
                "SHORTEST (x:Probe) [[-[e:next]->]{0,2}]{1,} (y:Adj)",
                CollectMode.GROUPING,
                DEEPENING,
                "GPC022: repeat body binds e and may match an edgeless path",
            ),
            # An edgeless body repeats without lengthening the path.
            (
                "SHORTEST (x:Probe) [(z)]{1,} -[:next]-> (y)",
                CollectMode.RUNTIME,
                BOUNDED_FILTER,
                "GPC022: repeat body binds z and may match an edgeless path",
            ),
            (
                "SHORTEST (x:Probe) [()]{1,} -[:next]-> (y)",
                CollectMode.RUNTIME,
                BOUNDED_FILTER,
                "repeat body may match an edgeless path",
            ),
        ):
            query = parse_query(text)
            assert collect_requirement(query.pattern, mode) == reason
            config = EngineConfig(
                collect_mode=mode, shortest_deepening_limit=8, lenient_shortest=True
            )
            evaluator = Evaluator(view_of(graph), config)
            route = evaluator.plan.pattern_plan(query.pattern).route
            assert route == (expected, None, reason)
            counters = EvalCounters()
            with use_counters(counters):
                served = evaluator.evaluate(query)
            assert counters.witnesses == 0
            assert (counters.deepening_rounds > 0) == (expected is DEEPENING)
            assert set(served) == reference_answers(graph, query, 8, mode)
        # ... and what never iterates, or binds nothing, does not.
        for text, mode in (
            ("(x) [(z)]{0,0} (y)", CollectMode.RUNTIME),
            ("(x) [()]{1,} -> (y)", CollectMode.GROUPING),
            ("(x) [[(:A)]{0,} -[e]->]{1,} (y)", CollectMode.GROUPING),
        ):
            assert collect_requirement(parse_pattern(text), mode) is None

    def test_a_body_that_binds_nothing_compiles_no_boundary_op(self):
        def ops(text):
            nfa = compile_register_nfa(parse_pattern(text))
            return nfa, [
                type(op).__name__ for row in nfa.zero for op, _target in row
            ]

        flat, flat_ops = ops("(x:Probe) -[:next]->{1,8} (y)")
        assert set(flat_ops) == {"_Eps", "_NodeTest", "_Bind"}
        assert flat.groups == ()
        grouped, grouped_ops = ops("(x:Probe) -[e:next]->{1,8} (y)")
        assert grouped_ops.count("_Open") == grouped_ops.count("_Close") == 1
        assert grouped_ops.count("_Reset") == 8
        assert grouped.num_states == flat.num_states + 2
        assert grouped.groups == ("#0",)
        # One register per nesting depth, shared by siblings.
        nested, _ops = ops("[[-[e]->]{1,2} [-[f]->]{1,2}]{1,2} -[g]->{1,2}")
        assert nested.groups == ("#0", "#1")

    def test_the_search_does_not_see_the_boundaries(self, view_of):
        graph = self._graph()
        flat, grouped = (
            parse_query(f"SHORTEST (x:Probe) -[{e}:next]->{{1,8}} (y)")
            for e in ("", "e")
        )
        counted = []
        view = view_of(graph)
        Evaluator(view).evaluate(flat)  # builds the masks
        for query in (flat, grouped):
            counters = EvalCounters()
            with use_counters(counters):
                Evaluator(view).evaluate(query)
            counted.append(counters)
        assert counted[0] == counted[1]
        assert counted[1].register_files == 0 < counted[1].dense_fast_lane


def _collect_graph() -> PropertyGraph:
    """Small enough for the specification under every restrictor: a
    ``next`` chain closed by an unlabelled back edge, ``knows`` edges
    with a self-loop, and the node labels the table's patterns read."""
    return (
        GraphBuilder()
        .node("n0", "Probe", "Person", "A")
        .node("n1", "Person", "B")
        .node("n2", "A")
        .node("n3", "Adj", "Person")
        .edge("n0", "n1", "next")
        .edge("n1", "n2", "next")
        .edge("n2", "n3", "next")
        .edge("n0", "n1", "knows")
        .edge("n1", "n3", "knows")
        .edge("n3", "n3", "knows")
        .edge("n3", "n0")
        .build()
    )


#: Every pattern whose runs cannot give its assignments under some
#: collect mode, as the route tests use them.
_COLLECT_PATTERNS = {
    "label-expression body": ast.concat(
        ast.Repeat(NodeWithLabelExpr(LabelOr(LabelAtom("A"), LabelAtom("B")), "x"), 1, 3),
        ast.forward(),
        ast.node("y"),
    ),
    **{
        text: parse_pattern(text)
        for text in (
            "(x) [(z:Person)]{1,} -[:knows]-> (y)",
            "(x) [(z:A)]{1,} -> (y)",
            "(x) [() + ->]{1,1} (y)",
            "[(x) + ->]{2,2}",
            "(x:Probe) [[-[e:next]->]{0,2}]{1,} (y:Adj)",
            "(x:Probe) [(z)]{1,} -[:next]-> (y)",
            "(x:Probe) [()]{1,} -[:next]-> (y)",
        )
    },
}


class TestTheSpecificationServesWhatARunCannotKnow:
    """A pattern with a :func:`collect_requirement` is served by the
    bounded evaluator, never by the witness search, under every
    restrictor and collect mode, on pristine and derived snapshots."""

    @pytest.mark.parametrize(
        "restrictor",
        [
            ast.Restrictor.SHORTEST,
            ast.Restrictor.TRAIL,
            ast.Restrictor.SIMPLE,
            ast.Restrictor.SHORTEST_TRAIL,
        ],
        ids=str,
    )
    @pytest.mark.parametrize("name", sorted(_COLLECT_PATTERNS))
    def test_against_the_reference(self, name, restrictor, view_of, monkeypatch):
        from repro.gpc import engine

        searches = []

        def witness_search(*args):
            searches.append(args)
            return register_nfa.witness_search(*args)

        monkeypatch.setattr(engine, "witness_search", witness_search)
        graph = _collect_graph()
        query = ast.PatternQuery(restrictor, _COLLECT_PATTERNS[name])
        required = 0
        for mode in CollectMode:
            config = EngineConfig(
                collect_mode=mode, shortest_deepening_limit=8, lenient_shortest=True
            )
            searches.clear()
            served = _outcome(Evaluator(view_of(graph), config).evaluate, query)
            assert served == _outcome(reference_answers, graph, query, 8, mode)
            if collect_requirement(query.pattern, mode) is not None:
                required += 1
                assert not searches
        assert required


def _outcome(evaluate, *args):
    """The answer set, or the type of the error raised instead."""
    try:
        return set(evaluate(*args))
    except GPCError as error:
        return type(error)


class TestMaskAnd:
    """Masks span nodes *and* edges; a labelled node that also carries
    a pushed atom ANDs two of them per evaluation."""

    def _graph(self):
        # 5 nodes + 6 edges = 11 elements: the last mask byte is partial.
        builder = GraphBuilder()
        for i in range(5):
            builder = builder.node(
                f"n{i}", *(["P"] if i % 2 == 0 else []), k=i % 3
            )
        for i in range(6):
            builder = builder.edge(
                f"n{i % 5}", f"n{(i + 2) % 5}", *(["P"] if i < 4 else []), k=i % 3
            )
        return builder.build()

    def test_the_combined_mask_is_the_per_element_truth(self):
        view = self._graph().snapshot()
        elements = view._core.elements
        assert len(elements) == 11
        label, atom = view.label_mask("P"), view.property_mask("k", 0)
        combined = and_masks(label, atom)
        assert type(combined) is bytes and len(combined) == len(label) == 2
        for d, element in enumerate(elements):
            truth = "P" in view.labels(element) and view.get_property(element, "k") == 0
            assert bool(combined[d >> 3] & (1 << (d & 7))) == truth, element
        assert not combined[1] >> 3  # no bit past the last element
        assert and_masks(None, atom) is atom and and_masks(label, None) is label
        assert and_masks(None, None) is None

    def test_the_lowering_uses_it_for_closures_and_pushed_atoms(self):
        graph = self._graph()
        view = graph.snapshot()
        query = parse_query("SHORTEST [(x:P) ->{1,} (y)] << x.k = 0 >>")
        nfa = compile_register_nfa(query.pattern, pushdown=True)
        program = lower_program(nfa, view)
        both = and_masks(view.label_mask("P"), view.property_mask("k", 0))
        assert both in {mask for mask, _r in program.closure[nfa.initial]}
        two_atoms = compile_register_nfa(
            parse_pattern("[(x) -[e]-> (y)] << e.k = 0 AND e.k = 1 >>"),
            pushdown=True,
        )
        ((row,),) = [rows for rows in lower_program(two_atoms, view).rows if rows]
        assert row[3] == bytes(2)  # k = 0 AND k = 1: no edge at all
        expected = reference_answers(graph, query, graph.num_nodes)
        assert expected and set(Evaluator(view).evaluate(query)) == expected


class TestClosureLimitBackstop:
    K = 8

    def _pattern_text(self):
        unions = " ".join(f"[(:L{i}) + ()]" for i in range(self.K))
        return f"(x) {unions} -> (y)"

    def _graph(self):
        builder = GraphBuilder()
        for i in range(6):
            labels = [f"L{j}" for j in range(self.K) if (i >> (j % 3)) & 1]
            builder = builder.node(f"n{i}", *labels)
        for i in range(5):
            builder = builder.edge(f"n{i}", f"n{i + 1}")
        return builder.build()

    def test_a_wide_mask_lattice_unfolds_instead_of_exploding(self, view_of):
        graph = self._graph()
        query = parse_query("SHORTEST " + self._pattern_text())
        nfa = compile_register_nfa(query.pattern, pushdown=True)
        view = view_of(graph)
        lower_program(nfa, view)  # builds the label masks
        began = time.perf_counter()
        program = lower_program(nfa, view)
        elapsed = time.perf_counter() - began
        assert elapsed < 0.05
        limit = register_nfa._CLOSURE_LIMIT
        assert all(len(pairs or ()) <= limit for pairs in program.closure)
        # 2^8 label subsets reach the step: some state stopped folding
        # and kept its free arcs for run time.
        unfolded = [
            q
            for q, arcs in enumerate(program.arcs)
            if any(kind == register_nfa._ARC_FREE for kind, *_rest in arcs)
        ]
        assert unfolded
        assert all(program.closure[q] == ((None, q),) for q in unfolded)
        expected = reference_answers(graph, query, graph.num_nodes)
        assert expected
        assert set(Evaluator(view).evaluate(query)) == expected

    def test_a_low_limit_changes_no_answer(self, monkeypatch, view_of):
        # Every state with any branching unfolds: the search runs on
        # run-time arcs alone.
        monkeypatch.setattr(register_nfa, "_CLOSURE_LIMIT", 2)
        graph = self._graph()
        for text in (
            "SHORTEST (x:L0) ->{1,} (y:L1)",
            "SHORTEST [(x) ->{1,} (y)] << x.k = y.k >>",
            "SHORTEST " + self._pattern_text(),
        ):
            query = parse_query(text)
            expected = reference_answers(graph, query, graph.num_nodes)
            assert set(Evaluator(view_of(graph)).evaluate(query)) == expected


class TestTypedErrors:
    def test_state_budget(self, view_of):
        view = view_of(complete_graph(5))
        for text in ("->{1,}", "[(x) ->{1,} (y)] << x.k = y.k >>"):
            nfa = compile_register_nfa(parse_pattern(text))
            program = lower_program(nfa, view)
            with pytest.raises(EvaluationLimitError, match="exceeded 3 states"):
                shortest_pair_lengths(program, N("n0"), state_budget=3)

    def test_unknown_seed(self, view_of):
        view = view_of(chain_graph(2))
        nfa = compile_register_nfa(parse_pattern("[(x) ->{1,} (y)] << x.k = y.k >>"))
        program = lower_program(nfa, view)
        with pytest.raises(UnknownIdError):
            shortest_pair_lengths(program, N("nowhere"))
        with pytest.raises(UnknownIdError):
            shortest_witnesses(program, N("nowhere"), {N("n1"): 1})
        # An unknown *target* is just never reached.
        assert shortest_witnesses(program, N("n0"), {N("nowhere"): 1}) == {}

    def test_a_removed_node_is_an_unknown_seed(self):
        graph = chain_graph(3)
        base = graph.snapshot()
        graph.remove_node(N("n3"))
        derived = GraphSnapshot.derive(base, graph.deltas_since(base.version))
        program = lower_program(
            compile_register_nfa(parse_pattern("->{0,}")), derived
        )
        with pytest.raises(UnknownIdError):
            shortest_pair_lengths(program, N("n3"))
        assert shortest_pair_lengths(program, N("n1")) == {N("n1"): 0, N("n2"): 1}

    def test_deadline_inside_the_witness_pass(self, view_of):
        view = view_of(complete_graph(6))
        query = parse_query("SHORTEST (x) ->{11,11} (y)")
        began = time.monotonic()
        with deadline_scope(0.05):
            with pytest.raises(DeadlineExceededError):
                Evaluator(view).evaluate(query, start_restriction={N("n0")})
        assert time.monotonic() - began < 5.0


class TestCounters:
    def test_register_files_and_the_register_free_count(self):
        graph = chain_graph(4, value_key="v")
        counters = EvalCounters()
        with use_counters(counters):
            Evaluator(graph).evaluate(parse_query("SHORTEST (x) ->{1,} (y)"))
        assert counters.dense_fast_lane == 5  # one search per seed
        assert counters.register_files == 0
        joined = EvalCounters()
        with use_counters(joined):
            Evaluator(graph).evaluate(
                parse_query("SHORTEST [(x) ->{1,} (y)] << x.v = y.v >>")
            )
        assert joined.dense_fast_lane == 0
        # From seed n_i: {x}, then {x, y} per node further down.
        assert joined.register_files == sum(1 + (4 - i) for i in range(5))

    def test_pushdown_no_longer_selects_a_lane(self):
        graph = chain_graph(4, value_key="v")
        query = parse_query("SHORTEST (x) ->{1,} (y)")
        for config in (EngineConfig(), EngineConfig(use_pushdown=False)):
            counters = EvalCounters()
            with use_counters(counters):
                Evaluator(graph, config).evaluate(query)
            assert counters.dense_fast_lane == 5


_STEP_SHAPES = (("-[", "]->"), ("<-[", "]-"), ("~[", "]~"))
_STEP_LABELS = {"-[": ("", ":r", ":s"), "<-[": ("", ":r", ":s"), "~[": ("", ":m")}
#: A chain of node-test unions whose closure outgrows ``_CLOSURE_LIMIT``.
_WIDE = " ".join(["[(:P) + ()]"] * 8)


@st.composite
def _pruned_queries(draw):
    """``SHORTEST`` texts over the :func:`random_graph` vocabulary:
    forward, backward and undirected steps, labelled or not, each bare
    (binding an edge a pushed atom may test), repeated, or a group
    ``[step (z)]{1,}`` with an optional pushed atom inside; pushed node
    atoms, the register condition ``x.k = y.k``, the join ``(x) ...
    (x)``, and one time in five the wide closure."""
    parts = [draw(st.sampled_from(("(x)", "(x:P)", "(x:Q)")))]
    atoms = []
    if draw(st.integers(0, 4)) == 0:
        parts.append(_WIDE)
    for i in range(draw(st.integers(1, 2))):
        opening, closing = draw(st.sampled_from(_STEP_SHAPES))
        label = draw(st.sampled_from(_STEP_LABELS[opening]))
        shape = draw(st.sampled_from(("edge", "{1,}", "{1,3}", "group")))
        if shape == "edge":
            parts.append(f"{opening}e{i}{label}{closing}")
            if draw(st.booleans()):
                atoms.append(f"e{i}.w = {draw(st.integers(0, 2))}")
        elif shape == "group":
            body = f"{opening}g{i}{label}{closing} (z{i})"
            if draw(st.booleans()):
                body = f"[{body}] << z{i}.k = 1 >>"
            parts.append(f"[{body}]{{1,}}")
        else:
            parts.append(f"{opening}{label}{closing}{shape}")
    end = draw(st.sampled_from(("(y)", "(y:P)", "(y:Q)", "(x)")))
    parts.append(end)
    conditions = ["x.k = 0"] + (["y.k = 1", "x.k = y.k"] if end != "(x)" else [])
    atoms += draw(st.lists(st.sampled_from(conditions), max_size=2, unique=True))
    text = " ".join(parts)
    if atoms:
        text = f"[{text}] << {' AND '.join(atoms)} >>"
    return "SHORTEST " + text


def _tailed_segment() -> PropertyGraph:
    """:func:`_segment` with one more ``next`` hop past its Adj, where
    a search from the Probe goes on to a node that reaches no Adj."""
    graph = _segment()
    adj = next(iter(graph.nodes_with_label("Adj")))
    graph.add_edge("next6", adj, graph.add_node("n7", [], {"k": 1}), ["next"])
    return graph


def _chord_ring(nodes=2000, segment=50, chords=4, seed=1) -> PropertyGraph:
    """The layers benchmark's ring at a mid size: ``next`` segments
    with a Probe first and an Adj seventh, and random ``chord`` edges,
    over which a backward pass from the Adj nodes reaches everything."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    handles = [
        graph.add_node(
            f"n{i}",
            ["Probe"] if i % segment == 0 else ["Adj"] if i % segment == 6 else [],
            {"k": 1 if i % segment == 1 else 0},
        )
        for i in range(nodes)
    ]
    for i in range(nodes - 1):
        if (i + 1) % segment:
            graph.add_edge(f"next{i}", handles[i], handles[i + 1], ["next"])
    for i in range(nodes):
        for c in range(chords):
            graph.add_edge(f"c{i}_{c}", handles[i], rng.choice(handles), ["chord"])
    return graph


class TestTargetPruning:
    """The length search queues only product states from which an end
    candidate can still be reached (``coreachable``): the same answers
    as the specification, on both ``shortest`` routes and after writes."""

    HORIZON = 4

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), _pruned_queries())
    def test_served_answers_equal_the_reference_on_both_routes(self, seed, text):
        graph = random_graph(random.Random(seed))
        query = parse_query(text)
        try:
            reference = reference_answers(
                graph,
                query,
                self.HORIZON,
                limits=_Limits(max_intermediate_results=20_000),
            )
        except EvaluationLimitError:
            return
        view = graph.snapshot()
        assert_equal_reference(
            reference, query, {"register": (view, EngineConfig())}, self.HORIZON
        )
        # An arithmetic condition that always holds is the identity,
        # and its NFA over-approximates: the deepening route, pruned by
        # the backward pass over that NFA, must find the same answers.
        deepened = ast.PatternQuery(
            query.restrictor,
            ArithConditioned(query.pattern, TermConst(1), TermConst(1)),
        )
        config = EngineConfig(
            shortest_deepening_limit=self.HORIZON, lenient_shortest=True
        )
        assert_equal_reference(
            reference, deepened, {"deepening": (view, config)}, self.HORIZON
        )
        # And at every length, not only below the horizon: a pruned
        # search finds what an unpruned one finds at the end candidates.
        evaluator = Evaluator(view)
        starts, ends = evaluator._shortest_candidates(query.pattern)
        if ends is None:
            return
        program = lower_program(evaluator.plan.register_nfa(query.pattern), view)
        reach = coreachable(program, ends)
        for start in starts:
            full = shortest_pair_lengths(program, start)
            pruned = shortest_pair_lengths(program, start, reach=reach)
            assert {end: full[end] for end in ends & full.keys()} == {
                end: pruned[end] for end in ends & pruned.keys()
            }

    def test_the_wide_chain_outgrows_the_closure_limit(self):
        view = random_graph(random.Random(0)).snapshot()
        nfa = compile_register_nfa(parse_pattern(f"(x) {_WIDE} -> (y:P)"))
        program = lower_program(nfa, view)
        assert any(
            kind == register_nfa._ARC_FREE
            for arcs in program.arcs
            for kind, *_rest in arcs
        )

    def test_the_tail_past_the_end_is_pruned(self):
        view = _tailed_segment().snapshot()
        query = parse_query("SHORTEST (x:Probe) -[:next]->{1,} (y:Adj)")
        counters = EvalCounters()
        with use_counters(counters):
            (answer,) = Evaluator(view).evaluate(query)
        assert len(answer.path) == 6
        # n0 .. n6 expanded; the step on to n7 is found and dropped.
        assert counters.search_states_pruned == 1
        assert counters.nfa_states_expanded == 7

    @pytest.mark.parametrize("facade", ["graph", "serial", "process"])
    def test_writes_to_the_only_edge_into_an_end(self, facade):
        graph = _tailed_segment()
        texts = (
            "SHORTEST (x:Probe) -[:next]->{1,} (y:Adj)",
            "SHORTEST [(x:Probe) -[:next]->{1,} (y:Adj)] << x.k = y.k >>",
            "SHORTEST [(x:Probe) -[e:next]->{1,} (y)] << y.k = 1 >>",
        )
        service = (
            GraphService(graph)
            if facade == "graph"
            else ClusterService(graph, backend=facade, num_workers=2)
        )
        adj = next(iter(graph.nodes_with_label("Adj")))

        def check():
            for text in texts:
                expected = reference_answers(
                    service.graph, parse_query(text), graph.num_nodes
                )
                assert set(service.evaluate(text, use_cache=False)) == expected

        with service:
            check()
            assert service.stats.engine.search_states_pruned > 0
            edge = DirectedEdgeId("next5")
            source = graph.source(edge)
            service.remove_edge(edge)
            check()
            service.add_edge("next5", source, adj, ["next"])
            check()
            service.set_property(adj, "k", 1)
            check()

    def test_an_overlay_turns_the_pass_off(self):
        graph = _tailed_segment()
        nfa = compile_register_nfa(parse_pattern("(x:Probe) -[:next]->{1,} (y:Adj)"))
        ends = graph.nodes_with_label("Adj")
        assert coreachable(lower_program(nfa, graph.snapshot()), ends) is not None
        base = graph.snapshot()
        graph.set_property(next(iter(ends)), "k", 5)
        # Property writes patch the masks the program reads: still on.
        props = GraphSnapshot.derive(base, graph.deltas_since(base.version))
        assert coreachable(lower_program(nfa, props), ends) is not None
        graph.remove_edge(DirectedEdgeId("next6"))
        rows = GraphSnapshot.derive(base, graph.deltas_since(base.version))
        assert rows._dirty and coreachable(lower_program(nfa, rows), ends) is None

    def test_the_backward_pass_honours_the_deadline(self, monkeypatch):
        graph = _chord_ring()
        view = graph.snapshot()
        text = "SHORTEST (x:Probe) -[:chord]->{1,} (y:Adj)"
        program = lower_program(
            compile_register_nfa(parse_query(text).pattern), view
        )
        ends = view.nodes_with_label("Adj")
        checks = []
        monkeypatch.setattr(register_nfa, "check_deadline", lambda: checks.append(1))
        reach = coreachable(program, ends)
        # Every marked state is popped once: one check per stride.
        assert len(checks) == sum(reach) // register_nfa._DEADLINE_STRIDE > 0
        monkeypatch.undo()
        with deadline_scope(0), pytest.raises(DeadlineExceededError):
            coreachable(program, ends)
        service = GraphService(graph)
        with deadline_scope(0.001), pytest.raises(DeadlineExceededError):
            service.evaluate(text, use_cache=False)
