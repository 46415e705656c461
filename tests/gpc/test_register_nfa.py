"""The register-NFA shortest engine: exact pair lengths and witness
enumeration."""

import time

import pytest

from reference import reference_answers
from repro.enumeration.radix import iter_paths_radix
from repro.enumeration.span_matcher import match_on_path
from repro.errors import (
    DeadlineExceededError,
    EvaluationError,
    EvaluationLimitError,
    UnknownIdError,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import (
    chain_graph,
    complete_graph,
    cycle_graph,
    theorem13_gadget,
)
from repro.graph.ids import NodeId as N
from repro.gpc import ast
from repro.gpc.collect import CollectMode
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.parser import parse_pattern, parse_query
from repro.gpc.planner import BOUNDED_FILTER, REGISTER
from repro.gpc.register_nfa import (
    compile_register_nfa,
    enumerate_exact_length_walks,
    enumerate_shortest_witnesses,
    lower_program,
    shortest_pair_lengths,
)
from repro.obs import EvalCounters, use_counters
from repro.obs.deadline import deadline_scope


class TestPairLengths:
    def test_chain_distances(self, pair_lengths):
        graph = chain_graph(4)
        nfa = compile_register_nfa(parse_pattern("->{1,}"))
        best = pair_lengths(graph, nfa, N("n0"))
        assert best == {
            N("n1"): 1,
            N("n2"): 2,
            N("n3"): 3,
            N("n4"): 4,
        }

    def test_star_includes_zero(self, pair_lengths):
        graph = chain_graph(2)
        nfa = compile_register_nfa(parse_pattern("->{0,}"))
        best = pair_lengths(graph, nfa, N("n0"))
        assert best[N("n0")] == 0

    def test_label_constraints_respected(self, pair_lengths):
        graph = (
            GraphBuilder()
            .edge("a", "b", "x")
            .edge("b", "c", "y")
            .build()
        )
        nfa = compile_register_nfa(parse_pattern("-[:x]-> -[:y]->"))
        best = pair_lengths(graph, nfa, N("a"))
        assert best == {N("c"): 2}

    def test_node_label_test(self, pair_lengths):
        graph = (
            GraphBuilder()
            .node("a", "A")
            .node("b", "B")
            .node("c", "A")
            .edge("a", "b")
            .edge("b", "c")
            .build()
        )
        nfa = compile_register_nfa(parse_pattern("(:A) ->{1,} (:A)"))
        best = pair_lengths(graph, nfa, N("a"))
        assert best == {N("c"): 2}
        assert pair_lengths(graph, nfa, N("b")) == {}

    def test_variable_join_enforced(self, pair_lengths):
        # (z) -> () -> (z): must return to the starting node.
        graph = cycle_graph(3)
        nfa = compile_register_nfa(parse_pattern("(z) -> () -> (z)"))
        assert pair_lengths(graph, nfa, N("n0")) == {}
        two_cycle = cycle_graph(2)
        assert pair_lengths(two_cycle, nfa, N("n0")) == {N("n0"): 2}

    def test_edge_variable_join(self, pair_lengths):
        # -[e]-> <-[e]-: traverse the same edge out and back.
        graph = (
            GraphBuilder().edge("a", "b", key="e1").edge("a", "b", key="e2").build()
        )
        nfa = compile_register_nfa(parse_pattern("-[e]-> <-[e]-"))
        best = pair_lengths(graph, nfa, N("a"))
        assert best == {N("a"): 2}

    def test_registers_reset_between_iterations(self, pair_lengths):
        # [(z) -> (z)]{2,2} would need two self-loops; with the reset,
        # [(z) ->]{2,2} allows different z per iteration.
        graph = chain_graph(2)
        nfa = compile_register_nfa(parse_pattern("[(z) ->]{2,2}"))
        best = pair_lengths(graph, nfa, N("n0"))
        assert best == {N("n2"): 2}

    def test_condition_checked(self, pair_lengths):
        graph = (
            GraphBuilder()
            .node("a", k=1)
            .node("b", k=2)
            .node("c", k=1)
            .edge("a", "b")
            .edge("b", "c")
            .build()
        )
        nfa = compile_register_nfa(
            parse_pattern("[(x) ->{1,} (y)] << x.k = y.k >>")
        )
        best = pair_lengths(graph, nfa, N("a"))
        assert best == {N("c"): 2}

    def test_unknown_seed_is_a_typed_error(self, pair_lengths):
        # Through every entry point: nothing is tracked, so the fixture
        # also runs the ``flat_`` names.
        nfa = compile_register_nfa(parse_pattern("->{1,}"))
        with pytest.raises(UnknownIdError):
            pair_lengths(chain_graph(2), nfa, N("nowhere"))

    def test_an_arithmetic_condition_compiles_as_its_child_inexactly(
        self, pair_lengths
    ):
        from repro.extensions.arithmetic import ArithConditioned, Count, TermConst

        child = parse_pattern("-[e]->{1,}")
        nfa = compile_register_nfa(ArithConditioned(child, Count("e"), TermConst(2)))
        assert not nfa.exact and nfa.approximated == ("ArithConditioned",)
        assert compile_register_nfa(child).exact
        # The child's runs: every pair it connects, at its lengths, the
        # pair of a single edge included, which #(e) = 2 refuses.
        graph = chain_graph(3)
        assert pair_lengths(graph, nfa, N("n0")) == {N("n1"): 1, N("n2"): 2, N("n3"): 3}


class TestWitnessEnumeration:
    def test_chain_witness(self):
        graph = chain_graph(3)
        nfa = compile_register_nfa(parse_pattern("->{1,}"))
        walks = enumerate_exact_length_walks(graph, nfa, N("n0"), N("n2"), 2)
        assert len(walks) == 1
        assert walks[0].src == N("n0") and walks[0].tgt == N("n2")

    def test_gadget_all_parallel_choices(self):
        graph = theorem13_gadget()
        nfa = compile_register_nfa(parse_pattern("->{3,3}"))
        walks = enumerate_exact_length_walks(graph, nfa, N("u"), N("v"), 3)
        assert len(walks) == 8  # 2 parallel edges at each of 3 steps

    def test_wrong_length_gives_nothing(self):
        graph = chain_graph(3)
        nfa = compile_register_nfa(parse_pattern("->{1,}"))
        assert not enumerate_exact_length_walks(graph, nfa, N("n0"), N("n2"), 1)

    def test_direction_pruning(self):
        graph = chain_graph(3)
        nfa = compile_register_nfa(parse_pattern("<-{1,}"))
        walks = enumerate_exact_length_walks(graph, nfa, N("n2"), N("n0"), 2)
        assert len(walks) == 1


def _walks_by_definition(graph, pattern, start, end, length):
    """The documented contract, by brute force: every walk of exactly
    ``length`` edges from ``start`` to ``end`` that the pattern matches
    (under ``GROUPING`` collect the register NFA accepts exactly
    those)."""
    return {
        path
        for path in iter_paths_radix(graph, length)
        if len(path) == length
        and path.src == start
        and path.tgt == end
        and match_on_path(pattern, path, graph)
    }


class TestPerSeedWitnessPass:
    """One enumeration per seed serves every ``(end, length)`` target;
    ``enumerate_exact_length_walks`` is its single-target call."""

    CASES = [
        (lambda: chain_graph(3), "->{1,}", "n0"),
        (theorem13_gadget, "->{3,3}", "u"),
        (lambda: chain_graph(3), "<-{1,}", "n2"),
        (lambda: cycle_graph(3), "->{1,}", "n0"),
        (lambda: complete_graph(4), "->{1,3}", "n1"),
    ]

    @pytest.mark.parametrize("build, text, seed", CASES)
    def test_one_pass_equals_single_target_calls_and_the_contract(
        self, build, text, seed, pair_lengths
    ):
        graph, pattern, start = build(), parse_pattern(text), N(seed)
        nfa = compile_register_nfa(pattern)
        best = pair_lengths(graph, nfa, start)
        assert best
        walks = enumerate_shortest_witnesses(graph, nfa, start, best)
        for end, length in best.items():
            single = enumerate_exact_length_walks(graph, nfa, start, end, length)
            assert len(single) == len(set(single))
            assert {walk for walk, _runs in walks[end]} == set(single)
            assert set(single) == _walks_by_definition(
                graph, pattern, start, end, length
            )
        assert set(walks) == set(best)

    def test_single_target_at_other_lengths(self):
        # Lengths other than the minimum are part of the contract: the
        # engine probes ``length + 1`` with the single-target call.
        graph, pattern = cycle_graph(3), parse_pattern("->{1,}")
        nfa = compile_register_nfa(pattern)
        for length in range(0, 8):
            for end in ("n0", "n1", "n2"):
                found = enumerate_exact_length_walks(
                    graph, nfa, N("n0"), N(end), length
                )
                assert set(found) == _walks_by_definition(
                    graph, pattern, N("n0"), N(end), length
                )

    def test_zero_length_target(self):
        graph = chain_graph(2)
        nfa = compile_register_nfa(parse_pattern("->{0,}"))
        walks = enumerate_shortest_witnesses(
            graph, nfa, N("n0"), {N("n0"): 0, N("n2"): 2}
        )
        assert [len(p) for p, _runs in walks[N("n0")]] == [0]
        assert [len(p) for p, _runs in walks[N("n2")]] == [2]

    def test_pushed_bind_atoms_prune_the_walk(self):
        # (m) is the first hop; only one of the fan-out has k = 1.
        builder = GraphBuilder().node("s", "S")
        for i in range(5):
            builder = builder.node(f"m{i}", k=1 if i == 3 else 0)
            builder = builder.edge("s", f"m{i}").edge(f"m{i}", "t")
        graph = builder.build()
        pattern = parse_pattern("[(x:S) -> (m) -> (y)] << m.k = 1 >>")
        counters = EvalCounters()
        with use_counters(counters):
            walks = enumerate_exact_length_walks(
                graph,
                compile_register_nfa(pattern, pushdown=True),
                N("s"),
                N("t"),
                2,
            )
        assert [p.nodes[1] for p in walks] == [N("m3")]
        # 5 first hops tried, 4 die at the bind, 1 second hop.
        assert (counters.witness_steps, counters.witnesses) == (6, 1)

    def test_every_accepting_run_is_returned(self):
        # One walk for the pair (n0, n2), three runs over it: one per
        # position of (m).
        graph = chain_graph(2)
        nfa = compile_register_nfa(parse_pattern("(x) ->{0,} (m) ->{0,} (y)"))
        walks = enumerate_shortest_witnesses(graph, nfa, N("n0"), {N("n2"): 2})
        ((walk, runs),) = walks[N("n2")]
        assert walk.nodes == (N("n0"), N("n1"), N("n2"))
        assert runs == {
            (("m", N(m)), ("x", N("n0")), ("y", N("n2")))
            for m in ("n0", "n1", "n2")
        }

    def test_variable_join_enforced_during_the_walk(self):
        # a <-> b plus b -> c0..c2: (x) -> (y) -> (x) must come back.
        builder = GraphBuilder().edge("a", "b").edge("b", "a")
        for i in range(3):
            builder = builder.edge("b", f"c{i}")
        graph = builder.build()
        nfa = compile_register_nfa(parse_pattern("(x) -> (y) -> (x)"))
        assert not enumerate_exact_length_walks(graph, nfa, N("a"), N("c1"), 2)
        counters = EvalCounters()
        with use_counters(counters):
            (walk,) = enumerate_exact_length_walks(graph, nfa, N("a"), N("a"), 2)
        assert walk.nodes == (N("a"), N("b"), N("a"))
        # a -> b, then all four moves out of b; three die at the join.
        assert (counters.witness_steps, counters.witnesses) == (5, 1)

    def test_residual_check_rejects_where_it_becomes_decidable(self):
        # x.k = m.k is decidable at the first hop: only m1 survives it,
        # so only m1's onward edge is ever tried.
        builder = GraphBuilder().node("s", k=1)
        for i in range(4):
            builder = builder.node(f"m{i}", k=i)
            builder = builder.edge("s", f"m{i}").edge(f"m{i}", "t")
        graph = builder.build()
        pattern = parse_pattern("[[(x) -> (m)] << x.k = m.k >>] -> (y)")
        counters = EvalCounters()
        with use_counters(counters):
            walks = enumerate_exact_length_walks(
                graph, compile_register_nfa(pattern), N("s"), N("t"), 2
            )
        assert [p.nodes[1] for p in walks] == [N("m1")]
        assert (counters.witness_steps, counters.witnesses) == (5, 1)

    def test_only_live_states_hold_a_prefix_open(self):
        # After n0 -> n1 the run stands before (:A), zero steps from
        # the end, and before -> ->, two steps from it. n1 is no A, so
        # with one step left nothing can finish: the prefix is cut
        # there, where the op-by-op oracle goes on to try n1 -> n2.
        from reference import reference_witnesses

        graph = chain_graph(4)
        nfa = compile_register_nfa(parse_pattern("(x) -> [(:A) + -> ->]"))
        served, oracle = EvalCounters(), EvalCounters()
        with use_counters(served):
            assert not enumerate_exact_length_walks(
                graph, nfa, N("n0"), N("n2"), 2
            )
        with use_counters(oracle):
            assert not reference_witnesses(graph, nfa, N("n0"), {N("n2"): 2})
        assert (served.witness_steps, oracle.witness_steps) == (1, 2)

    def test_counters_share_prefixes(self):
        graph = chain_graph(8)
        query = parse_query("SHORTEST (x) ->{1,8} (y)")
        counters = EvalCounters()
        with use_counters(counters):
            answers = Evaluator(graph).evaluate(
                query, start_restriction={N("n0")}
            )
        assert len(answers) == 8
        # 8 edge expansions for 8 targets, not 1 + 2 + ... + 8.
        assert counters.witness_steps == 8
        assert counters.witnesses == 8
        assert counters.deepening_rounds == 0  # each pair at its minimum
        grouped = EvalCounters()
        with use_counters(grouped):
            Evaluator(graph).evaluate(
                parse_query("SHORTEST (x) -[e]->{1,8} (y)"),
                start_restriction={N("n0")},
            )
        # Every iteration consumes an edge: the lists come off the run.
        assert grouped.witnesses == 8
        assert grouped.witness_steps == 8

    def test_collect_failure_runs_the_specification(self, view_of):
        # Under RUNTIME collect an edgeless factor is undefined, so the
        # NFA's length 0 for the pair has no collectible witness, nor
        # has length 1 (one edge factor, one edgeless); length 2 has.
        graph = cycle_graph(1)
        pattern = parse_pattern("[(x) + ->]{2,2}")
        nfa = compile_register_nfa(pattern)
        node = N("n0")
        view = view_of(graph)
        assert shortest_pair_lengths(lower_program(nfa, view), node) == {node: 0}
        runtime = CollectMode.RUNTIME
        collectible = []
        for length in range(3):
            (walk,) = enumerate_exact_length_walks(graph, nfa, node, node, length)
            assert len(walk) == length
            collectible.append(bool(match_on_path(pattern, walk, graph, runtime)))
        assert collectible == [False, False, True]
        query = parse_query("SHORTEST [(x) + ->]{2,2}")
        evaluator = Evaluator(view, EngineConfig(collect_mode=runtime))
        assert evaluator.plan.pattern_plan(pattern).route == (
            BOUNDED_FILTER,
            None,
            "GPC022: repeat body binds x and may match an edgeless path",
        )
        counters = EvalCounters()
        with use_counters(counters):
            answers = evaluator.evaluate(query)
        assert [len(a.path) for a in answers] == [2]
        assert answers == reference_answers(graph, query, 2, runtime)
        assert counters.witnesses == counters.deepening_rounds == 0

    @pytest.mark.parametrize(
        "mode, edgeless_pairs", [(CollectMode.RUNTIME, 0), (CollectMode.GROUPING, 3)]
    )
    def test_edgeless_body_leaves_the_register_route_outside_grouping(
        self, mode, edgeless_pairs
    ):
        # The body binds nothing, yet RUNTIME collect is undefined on
        # its edgeless factor: a run cannot tell.
        graph = chain_graph(2)
        pattern = parse_pattern("(x) [() + ->]{1,1} (y)")
        query = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern)
        evaluator = Evaluator(graph, EngineConfig(collect_mode=mode))
        route, _nfa, why = evaluator.plan.pattern_plan(pattern).route
        if mode is CollectMode.GROUPING:
            assert (route, why) == (REGISTER, None)
        else:
            assert (route, why) == (
                BOUNDED_FILTER,
                "repeat body may match an edgeless path",
            )
        answers = evaluator.evaluate(query)
        lengths = sorted(len(a.path) for a in answers)
        assert lengths == [0] * edgeless_pairs + [1, 1]
        assert answers == reference_answers(graph, query, 2, mode)


class TestDeadlineInsideTheWitnessPass:
    def test_high_fan_out_seed_stops_at_the_deadline(self):
        # 5^11 walks of length 11 from one seed: the per-seed and
        # per-round checks alone would let the DFS run for hours.
        graph = complete_graph(6)
        query = parse_query("SHORTEST (x) ->{11,11} (y)")
        evaluator = Evaluator(graph)
        began = time.monotonic()
        with deadline_scope(0.05):
            with pytest.raises(DeadlineExceededError):
                evaluator.evaluate(query, start_restriction={N("n0")})
        assert time.monotonic() - began < 5.0


class TestCheckErrorPropagation:
    """Errors raised while evaluating a ``_Check`` condition.

    The search swallows :class:`EvaluationError` from malformed
    conditions (an unsatisfiable check just kills the run), but
    deadline expiry and engine safety limits are *control flow*: they
    must escape the search so the service can answer 504 / 422 instead
    of silently returning a truncated answer set.
    """

    def _graph(self):
        return (
            GraphBuilder()
            .node("a", k=1)
            .node("b", k=1)
            .edge("a", "b")
            .build()
        )

    def _nfa(self):
        # Two-variable condition: never pushable, always a _Check.
        return compile_register_nfa(
            parse_pattern("[(x) ->{1,} (y)] << x.k = y.k >>")
        )

    @pytest.mark.parametrize(
        "error", [DeadlineExceededError, EvaluationLimitError]
    )
    def test_length_search_propagates(self, error, monkeypatch, pair_lengths):
        def boom(graph, assignment, condition, values=()):
            raise error("expired inside a CHECK")

        monkeypatch.setattr("repro.gpc.register_nfa.satisfies", boom)
        with pytest.raises(error):
            pair_lengths(self._graph(), self._nfa(), N("a"))

    @pytest.mark.parametrize(
        "error", [DeadlineExceededError, EvaluationLimitError]
    )
    def test_witness_pass_propagates(self, error, monkeypatch):
        def boom(graph, assignment, condition, values=()):
            raise error("expired inside a CHECK")

        monkeypatch.setattr("repro.gpc.register_nfa.satisfies", boom)
        with pytest.raises(error):
            enumerate_exact_length_walks(
                self._graph(), self._nfa(), N("a"), N("b"), 1
            )

    def test_plain_evaluation_errors_still_swallowed(
        self, monkeypatch, pair_lengths
    ):
        def boom(graph, assignment, condition, values=()):
            raise EvaluationError("malformed condition")

        monkeypatch.setattr("repro.gpc.register_nfa.satisfies", boom)
        graph = self._graph()
        assert pair_lengths(graph, self._nfa(), N("a")) == {}
        assert not enumerate_exact_length_walks(
            graph, self._nfa(), N("a"), N("b"), 1
        )
