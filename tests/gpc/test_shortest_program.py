"""The one lowered ``shortest`` program: which registers it tracks,
what it folds, and that its search and witness pass equal the oracles
of :mod:`reference` on pristine and derived snapshots."""

import time

import pytest

from reference import reference_answers, reference_witnesses
from repro.errors import (
    DeadlineExceededError,
    EvaluationLimitError,
    UnknownIdError,
)
from repro.gpc import register_nfa
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_pattern, parse_query
from repro.gpc.register_nfa import (
    compile_register_nfa,
    lower_program,
    shortest_pair_lengths,
    shortest_witnesses,
)
from repro.graph import GraphSnapshot, PropertyGraph
from repro.graph.builder import GraphBuilder
from repro.graph.columns import and_masks
from repro.graph.generators import chain_graph, complete_graph
from repro.graph.ids import NodeId as N
from repro.obs import EvalCounters, use_counters
from repro.obs.deadline import deadline_scope


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
        assert _tracked("(x) -[e]->{1,8} (y)") == {"e": 8}
        assert _tracked("(x) -[e]->{1,} (y)") == {"e": 2}

    def test_union_branches_are_sites(self):
        assert _tracked("[(x:A) -> (y) + (x:B) <- (y)]") == {"x": 2, "y": 2}
        assert _tracked("[(x:A) + (y:B)] -> (z)") == {}

    def test_the_search_lowers_with_exactly_that_set(self):
        graph = chain_graph(3)
        nfa = compile_register_nfa(parse_pattern("(x) -[e]->{2,2} (x)"))
        program = lower_program(nfa, graph.snapshot())
        assert program.tracked == ("e", "x")
        everything = program.retracked(nfa.sites)
        assert everything is program
        nfa = compile_register_nfa(parse_pattern("(x) ->{1,} (y)"))
        program = lower_program(nfa, graph.snapshot())
        assert program.tracked == () and not any(program.arcs)
        everything = program.retracked(nfa.sites)
        assert everything.tracked == ("x", "y")
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
