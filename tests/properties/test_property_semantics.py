"""Property-based tests of the semantics (Proposition 9 and friends)."""

import sys
from pathlib import Path as _P

sys.path.insert(0, str(_P(__file__).parent))

import random
from dataclasses import replace
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    assert_equal_reference,
    assert_runs_equal_the_matcher,
    reference_answers,
    reference_witnesses,
)
from strategies import small_graphs, well_typed_patterns

from repro.graph import GraphSnapshot
from repro.graph.generators import random_multigraph
from repro.graph.paths import is_simple, is_trail, path_in_graph
from repro.gpc import ast
from repro.gpc.engine import EngineConfig, Evaluator, evaluate
from repro.gpc.collect import CollectMode
from repro.gpc.parser import parse_pattern
from repro.gpc.register_nfa import (
    collect_requirement,
    compile_register_nfa,
    lower_program,
    shortest_pair_lengths,
    shortest_witnesses,
)
from repro.gpc.typing import infer_schema
from repro.obs import EvalCounters, use_counters

_BOUND = 3
_MATCHER_BOUND = 4


@settings(max_examples=80, deadline=None)
@given(small_graphs(), well_typed_patterns(max_depth=2))
def test_proposition9_conformance(graph, pattern):
    """Every (p, mu) has p a path in G and mu conforming to sch(pi)."""
    schema = infer_schema(pattern)
    matches = Evaluator(graph).eval_pattern(pattern, max_length=_BOUND)
    for path, mu in matches:
        assert path_in_graph(path, graph)
        assert mu.conforms_to(schema)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), well_typed_patterns(max_depth=2))
def test_bounded_eval_monotone_in_bound(graph, pattern):
    """eval(pi, L) grows monotonically with L."""
    evaluator = Evaluator(graph)
    small = evaluator.eval_pattern(pattern, max_length=1)
    large = evaluator.eval_pattern(pattern, max_length=_BOUND)
    assert small <= large


@settings(max_examples=60, deadline=None)
@given(small_graphs(), well_typed_patterns(max_depth=1), well_typed_patterns(max_depth=1))
def test_union_answers_commutative(graph, left, right):
    from repro.errors import GPCTypeError

    evaluator = Evaluator(graph)
    try:
        a = evaluator.eval_pattern(ast.Union(left, right), max_length=2)
        b = evaluator.eval_pattern(ast.Union(right, left), max_length=2)
    except GPCTypeError:
        return
    assert a == b


@settings(max_examples=50, deadline=None)
@given(small_graphs(), well_typed_patterns(max_depth=2))
def test_trail_simple_answers_are_subsets(graph, pattern):
    """simple answers are trails; both filter the bounded denotation."""
    # With the default guard (2M intermediate results) an adversarial
    # repetition runs for minutes before it fires.
    config = EngineConfig(max_intermediate_results=20_000)
    try:
        trail_answers = evaluate(
            ast.PatternQuery(ast.Restrictor.TRAIL, pattern), graph, config
        )
        simple_answers = evaluate(
            ast.PatternQuery(ast.Restrictor.SIMPLE, pattern), graph, config
        )
    except Exception:
        # Engine resource guards may fire on adversarial repetitions.
        return
    for answer in trail_answers:
        assert is_trail(answer.path)
    for answer in simple_answers:
        assert is_simple(answer.path)
        # every simple path (len >= 1) is a trail; edgeless trivially.
        assert is_trail(answer.path)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), well_typed_patterns(max_depth=2))
def test_shortest_minimality(graph, pattern):
    """No two shortest answers with equal endpoints have different
    lengths, and no shorter match exists in the bounded denotation."""
    from repro.errors import GPCError

    try:
        answers = evaluate(
            ast.PatternQuery(ast.Restrictor.SHORTEST, pattern), graph
        )
    except GPCError:
        return
    minima = {}
    for answer in answers:
        key = (answer.path.src, answer.path.tgt)
        minima.setdefault(key, set()).add(len(answer.path))
    assert all(len(lengths) == 1 for lengths in minima.values())
    # Cross-check against the bounded denotation at a small horizon.
    matches = Evaluator(graph).eval_pattern(pattern, max_length=2)
    for path, _ in matches:
        key = (path.src, path.tgt)
        if key in minima:
            assert min(minima[key]) <= len(path)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), well_typed_patterns(max_depth=2))
def test_collect_modes_agree_on_positive_bodies(graph, pattern):
    """When no repetition body can match edgeless paths, all three
    collect approaches give identical answers."""
    from repro.gpc.minlength import may_match_edgeless

    for sub in ast.iter_subpatterns(pattern):
        if isinstance(sub, ast.Repeat) and may_match_edgeless(sub.pattern):
            return  # approaches legitimately differ
    results = []
    for mode in CollectMode:
        evaluator = Evaluator(graph, EngineConfig(collect_mode=mode))
        results.append(evaluator.eval_pattern(pattern, max_length=_BOUND))
    assert results[0] == results[1] == results[2]


#: Shapes the random generator rarely reaches: repeat bodies that can
#: match edgeless paths (the per-start period detection and Lemma 15
#: cap of the span matcher) and repeats nested in repeats.
_REPEAT_SHAPES = tuple(
    parse_pattern(text)
    for text in (
        "[(x)]{1,}",
        "[(x:A)]{0,} ->",
        "[(x) + ->]{2,}",
        "[(x) + (y)]{1,3} -> (z)",
        "[[(x)]{0,1}]{2,}",
        "[[(x)]{0,2} ->{0,1}]{1,}",
        "[[-[e]->]{1,2}]{1,2}",
        "[[-> (x)]{1,} [<-]{0,1}]{1,2}",
        "[->{0,} (x:A)]{1,}",
        "(u) [[~[e]~]{1,2} (x)]{0,} (v)",
    )
)


@settings(max_examples=60, deadline=None)
@given(
    small_graphs(),
    well_typed_patterns(max_depth=3) | st.sampled_from(_REPEAT_SHAPES),
    st.sampled_from(list(CollectMode)),
)
def test_span_matcher_agrees_with_engine(graph, pattern, mode):
    """Differential: the Lemma 19 span matcher reproduces the bounded
    evaluator's per-path assignment sets — on the paths that match and,
    with the empty set, on the paths that do not."""
    from repro.enumeration.radix import iter_paths_radix
    from repro.enumeration.span_matcher import match_on_path, span_matches
    from repro.errors import CollectError, EvaluationLimitError

    # A tight resource guard: adversarial nested repetitions blow up
    # the bounded denotation, and those examples are skipped, not sat
    # through.
    config = EngineConfig(collect_mode=mode, max_intermediate_results=1_500)
    try:
        matches = Evaluator(graph, config).eval_pattern(
            pattern, max_length=_MATCHER_BOUND
        )
    except (CollectError, EvaluationLimitError):
        # SYNTACTIC rejects edgeless repeat bodies upfront.
        return
    by_path = {}
    for path, mu in matches:
        by_path.setdefault(path, set()).add(mu)
    for path, mus in by_path.items():
        assert match_on_path(pattern, path, graph, mode) == frozenset(mus)
    for path in islice(iter_paths_radix(graph, _MATCHER_BOUND), 300):
        expected = frozenset(by_path.get(path, ()))
        assert match_on_path(pattern, path, graph, mode) == expected
    # ``span_matches`` is the same matcher asked for every start: each
    # cell is what the anchored call finds on that subpath alone.
    for path in islice(by_path, 5):
        table = span_matches(pattern, path, graph, mode)
        assert all(table.values())
        for i in range(len(path) + 1):
            for j in range(i, len(path) + 1):
                assert table.get((i, j), frozenset()) == match_on_path(
                    pattern, path.subpath(i, j), graph, mode
                )


#: ``shortest`` patterns: group variables, end-constrained (label and
#: pushed atom), a two-variable residue, a union, an undirected step,
#: and an edgeless repeat body; then the shapes whose assignments are
#: read off the register run — node and edge joins, one-sided union
#: variables, an undirected edge variable, ``{0,0}`` and edgeless
#: bodies that bind nothing.
_SHORTEST_SHAPES = tuple(
    parse_pattern(text)
    for text in (
        "(x) ->{1,} (y)",
        "(x:A) -[e:a]->{1,3} (y)",
        "(x) ->{1,} (y:B)",
        "[(x) -> (m) ->{0,} (y)] << y.k = 1 >>",
        "[(x:A) -> (m) ->{1,} (y)] << m.k = 1 >>",
        "[(x) ->{1,} (y)] << x.k = y.k >>",
        "(x) [-[e:a]-> + <-[e:b]-]{1,} (y:A)",
        "(x) [~[e]~ (z)]{1,2} -> (y)",
        "(x) [(z:A)]{1,} -> (y)",
        "(x) -> (y) -> (x)",
        "(x) -[e]-> (y) <-[e]- (x)",
        "[(x:A) + (y:B)] ->{1,2} (z)",
        "[(x) -> (y) + (x) <- (z)] ->{0,2} (w)",
        "(x) ~[e]~ (y) ->{0,1} (z)",
        "[(x) ()]{0,0} (y)",
        "(x) [() ()]{1,} -> (y)",
    )
)

#: Shapes whose group values are read off the run: an ambiguous
#: factorisation, a repeat nested in a repeat, a variable only one
#: union branch of the body binds (and a whole inner list that way),
#: ``{0,0}`` alone and inside a body, zero iterations of ``{0,}``, a
#: condition inside the body, an undirected step, a list inside a
#: two-variable wrapper — and two bodies that bind a variable and may
#: match an edgeless path, which stay with the span matcher.
_READ_OFF_SHAPES = tuple(
    parse_pattern(text)
    for text in (
        "(x) [-[e]-> + -[e]-> -[f]->]{1,} (y)",
        "(x) [[-[e]->]{1,2} (z)]{1,2} (y)",
        "(x) [-[e:a]-> + <-[f]-]{1,3} (y)",
        "(x) [[-[e]->]{1,2} + -[f]->]{1,2} (y)",
        "(x) -[e]->{0,0} (y)",
        "(x) [[-[e]->]{0,0} -[f]->]{1,2} (y)",
        "(x) [-[e]-> (z)]{0,} (y)",
        "(x) [[-[e]-> (z)] << z.k = 1 >>]{1,3} (y)",
        "(x) ~[e]~{2,3} (y)",
        "[(x) -[e]->{1,3} (y)] << x.k = y.k >>",
        "(x) [[-[e]->]{0,2}]{1,} (y)",
        "(x) [(z) + -[e]->]{1,2} (y)",
    )
)
_SHORTEST_SHAPES += _READ_OFF_SHAPES
_SHORTEST_HORIZON = 4


def _a_graph():
    """A fixed :func:`small_graphs` draw, for the examples a test must
    not depend on the generator to reach."""
    return random_multigraph(
        4, 7, 1, ("A", "B"), ("a", "b"), ("k", "m"), value_range=3, seed=0
    )


def _shortest_equals_reference(graph, pattern, mode, seed, restrict):
    """One example of the test below; ``None`` when the example is
    outside it, else whether the pattern was run-complete."""
    from repro.errors import CollectError, EvaluationLimitError
    from repro.gpc.minlength import validate_approach1
    from repro.gpc.semantics import _Limits

    if mode is CollectMode.SYNTACTIC:
        try:
            validate_approach1(pattern)
        except CollectError:
            return None
    rng = random.Random(seed)
    derived = _derive_chain(rng, graph)
    plain = graph.copy()
    pristine = GraphSnapshot(plain)
    assert not pristine.overlay_ops
    horizon = _SHORTEST_HORIZON
    query = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern)
    try:
        # Adversarial nested repetitions blow up the bounded
        # denotation; those examples are skipped, not sat through.
        reference = reference_answers(
            plain, query, horizon, mode, _Limits(max_intermediate_results=3_000)
        )
    except EvaluationLimitError:
        return None
    nodes = sorted(plain.nodes)
    restriction = (
        frozenset(rng.sample(nodes, rng.randrange(len(nodes) + 1)))
        if restrict
        else None
    )
    # Where collect is undefined on every witness the engine probes
    # longer walks; past the horizon that is outside the reference.
    config = EngineConfig(
        collect_mode=mode,
        shortest_deepening_limit=horizon,
        lenient_shortest=True,
    )
    all_off = replace(
        config, use_planner=False, use_pushdown=False, use_analysis=False
    )
    views = {
        "plain": (plain, config),
        "pristine": (pristine, config),
        "derived": (derived, config),
        "all-off": (pristine, all_off),
    }
    assert_equal_reference(reference, query, views, horizon, restriction)
    return collect_requirement(pattern, mode) is None


def test_shortest_equals_the_bounded_reference_on_every_view():
    """``SHORTEST`` equals the specification on a plain graph, a
    pristine snapshot and a snapshot at the end of a derive chain, with
    and without a start restriction, under every collect mode — for
    patterns whose assignments are read off the register run and for
    patterns that need the span matcher."""
    run_complete = set()
    tracked = set()
    unions = set()
    sources = set()

    @settings(max_examples=120, deadline=None)
    @given(
        small_graphs(),
        well_typed_patterns(max_depth=3) | st.sampled_from(_SHORTEST_SHAPES),
        st.sampled_from(list(CollectMode)),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    # Always drawn: nested lists off the run, the refusal that stays,
    # and a run-read assignment whose search carries registers — so the
    # closing asserts never wait on the generator.
    @example(_a_graph(), _READ_OFF_SHAPES[1], CollectMode.SYNTACTIC, 1, False)
    @example(_a_graph(), _READ_OFF_SHAPES[-1], CollectMode.GROUPING, 2, True)
    @example(_a_graph(), _SHORTEST_SHAPES[5], CollectMode.GROUPING, 3, False)
    def check(graph, pattern, mode, seed, restrict):
        verdict = _shortest_equals_reference(graph, pattern, mode, seed, restrict)
        run_complete.add(verdict)
        if verdict is not None:
            nfa = compile_register_nfa(pattern, pushdown=True)
            tracked.add(bool(nfa.constraining))
            unions.add(
                any(
                    isinstance(sub, ast.Union)
                    for sub in ast.iter_subpatterns(pattern)
                )
            )
            requirement = collect_requirement(pattern, mode)
            if requirement is not None:
                sources.add(requirement.partition(":")[0])
            else:
                sources.add("lists off the run" if nfa.groups else "run")

    check()
    assert {True, False} <= run_complete
    # Searches that carry registers and searches that carry none, and
    # closures that fold a union's branches.
    assert tracked == {True, False} and True in unions
    # Group values read off a run, and a body that binds a variable and
    # may match an edgeless path still refused.
    assert {"run", "lists off the run", "GPC022"} <= sources


def test_lowered_search_and_witness_pass_equal_the_accessor_oracle(view_of):
    """The lowered program against the register NFA run op by op over
    real ids (:func:`reference.reference_witnesses`): the same minimum
    lengths, the same walks with the same register files, and no more
    ``witness_steps`` — on a pristine or overlay snapshot (the fixture)
    and on one at the end of a derive chain, with and without pushed
    atoms."""
    horizon = 3

    def oracle_lengths(graph, nfa, start):
        best = {}
        for length in range(horizon + 1):
            targets = {node: length for node in graph.nodes if node not in best}
            for end in reference_witnesses(graph, nfa, start, targets):
                best[end] = length
        return best

    def compare(graph, view, nfa):
        search = lower_program(nfa, view)
        walker = search.retracked(nfa.sites)
        for start in view.nodes:
            best = shortest_pair_lengths(search, start)
            assert {
                end: length for end, length in best.items() if length <= horizon
            } == oracle_lengths(graph, nfa, start)
            for targets in (
                best,
                {end: length + 1 for end, length in best.items()},
            ):
                targets = {
                    end: length
                    for end, length in targets.items()
                    if length <= horizon
                }
                served, oracle = EvalCounters(), EvalCounters()
                with use_counters(served):
                    found = shortest_witnesses(walker, start, targets)
                with use_counters(oracle):
                    expected = reference_witnesses(graph, nfa, start, targets)
                assert {end: set(w) for end, w in found.items()} == expected
                # The folded closures name live states only, so the
                # remaining-steps bound can cut a prefix the oracle
                # still expands — never the other way round.
                assert served.witnesses == oracle.witnesses
                assert served.witness_steps <= oracle.witness_steps
                # Tracking only what constrains a run accepts the same
                # walks.
                narrow = shortest_witnesses(search, start, targets)
                assert {
                    end: {walk for walk, _runs in walks}
                    for end, walks in narrow.items()
                } == {
                    end: {walk for walk, _runs in walks}
                    for end, walks in expected.items()
                }

    @settings(max_examples=60, deadline=None)
    @given(
        small_graphs(),
        well_typed_patterns(max_depth=3) | st.sampled_from(_SHORTEST_SHAPES),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    def check(graph, pattern, pushdown, seed):
        nfa = compile_register_nfa(pattern, pushdown=pushdown)
        compare(graph, view_of(graph), nfa)
        compare(graph, _derive_chain(random.Random(seed), graph), nfa)

    check()


def test_group_read_off_equals_the_span_matcher(view_of):
    """Walk by walk, what the witness pass reads off its runs — lists
    included — is what the span matcher finds on that walk, under every
    collect mode in which the pattern is run-complete: on a pristine or
    overlay snapshot (the fixture) and on one at the end of a derive
    chain, with and without pushed atoms."""
    compared = {mode: 0 for mode in CollectMode}
    lists = set()

    def compare(graph, pattern, pushdown, seed):
        nfa = compile_register_nfa(pattern, pushdown=pushdown)
        views = [view_of(graph)]
        views.append(_derive_chain(random.Random(seed), graph))
        for view in views:
            counts = assert_runs_equal_the_matcher(view, pattern, nfa, horizon=3)
            for mode, walks in counts.items():
                compared[mode] += walks
                lists.add(bool(walks and nfa.groups))

    for shape in _READ_OFF_SHAPES:
        before = sum(compared.values())
        compare(_a_graph(), shape, True, 7)
        refused = collect_requirement(shape, CollectMode.GROUPING)
        assert (sum(compared.values()) > before) == (refused is None), shape
    assert all(compared.values()) and True in lists
    settings(max_examples=60, deadline=None)(
        given(
            small_graphs(),
            well_typed_patterns(max_depth=3) | st.sampled_from(_SHORTEST_SHAPES),
            st.booleans(),
            st.integers(min_value=0, max_value=10_000),
        )(compare)
    )()


#: Repetitions under ``trail`` / ``simple``: unbounded and ``{1,4}``,
#: a group variable, a union body, an undirected step, a two-edge body,
#: a condition over the endpoints, two repetitions in a row, and bodies
#: that are a single atom (no concatenation builds their matches).
_RESTRICTED_SHAPES = tuple(
    parse_pattern(text)
    for text in (
        "(x) ->{1,} (y)",
        "(x:A) -[e:a]->{1,4} (y)",
        "(x) [-[e:a]-> + <-[e:b]-]{1,} (y:A)",
        "(x) ~[e]~{1,4} (y)",
        "(x) [-> ->]{1,} (y)",
        "[(x) ->{1,} (y)] << x.k = y.k >>",
        "(x) ->{1,} (m) <-{1,4} (y)",
        "->{1,}",
        "[-> + ~]{1,4}",
        "(x) [(z) ->]{1,} (y)",
    )
)


def test_restrictors_over_repetitions_equal_the_bounded_reference():
    """``TRAIL`` / ``SIMPLE`` / ``SHORTEST TRAIL`` / ``SHORTEST SIMPLE``
    over ``{1,}`` and ``{1,4}`` equal the specification — the unpruned
    bounded denotation, filtered afterwards — on every view, with and
    without a start restriction: the engine prunes while it builds."""
    from repro.errors import EvaluationLimitError
    from repro.gpc.semantics import _Limits

    restrictors = (
        ast.Restrictor.TRAIL,
        ast.Restrictor.SIMPLE,
        ast.Restrictor.SHORTEST_TRAIL,
        ast.Restrictor.SHORTEST_SIMPLE,
    )
    compared = set()

    @settings(max_examples=120, deadline=None)
    @given(
        small_graphs(),
        st.sampled_from(_RESTRICTED_SHAPES) | well_typed_patterns(max_depth=2),
        st.sampled_from(restrictors),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    # Always drawn: each spelling over a repetition with answers, so the
    # closing assert never waits on the generator.
    @example(_a_graph(), _RESTRICTED_SHAPES[0], restrictors[0], 0, False)
    @example(_a_graph(), _RESTRICTED_SHAPES[0], restrictors[1], 0, True)
    @example(_a_graph(), _RESTRICTED_SHAPES[0], restrictors[2], 0, False)
    @example(_a_graph(), _RESTRICTED_SHAPES[0], restrictors[3], 0, True)
    def check(graph, pattern, restrictor, seed, restrict):
        rng = random.Random(seed)
        derived = _derive_chain(rng, graph)
        plain = graph.copy()
        query = ast.PatternQuery(restrictor, pattern)
        horizon = plain.num_edges + plain.num_nodes  # above both bounds
        limits = _Limits(max_intermediate_results=3_000)
        try:
            reference = reference_answers(plain, query, horizon, limits=limits)
        except EvaluationLimitError:
            return  # the unpruned denotation blew up; not sat through
        nodes = sorted(plain.nodes)
        restriction = (
            frozenset(rng.sample(nodes, rng.randrange(len(nodes) + 1)))
            if restrict
            else None
        )
        # What the pruning evaluator holds is a subset of what the
        # reference held, so the same guard cannot fire here.
        config = EngineConfig(max_intermediate_results=3_000)
        views = {
            "plain": (plain, config),
            "pristine": (GraphSnapshot(plain), config),
            "derived": (derived, config),
            "all-off": (plain, replace(config, use_planner=False, use_analysis=False)),
        }
        assert_equal_reference(reference, query, views, horizon, restriction)
        compared.add((str(restrictor), bool(reference)))

    check()
    # Each spelling was compared on a non-empty answer set.
    assert {(str(r), True) for r in restrictors} <= compared


def _derive_chain(rng, graph):
    """Mutate ``graph`` one to four times, a snapshot per version, and
    return the snapshot at the end of that derive chain."""
    graph.snapshot()  # later versions are derived, not rebuilt
    for _ in range(rng.randrange(1, 5)):
        _mutate(rng, graph)
        graph.snapshot()
    return graph.snapshot()


def _mutate(rng, graph):
    """One small mutation that keeps the graph non-empty."""
    nodes = sorted(graph.nodes)
    edges = sorted(graph.directed_edges)
    op = rng.randrange(5)
    if op == 0:
        graph.set_property(rng.choice(nodes), "k", rng.randrange(3))
    elif op == 1 and edges:
        graph.remove_edge(rng.choice(edges))
    elif op == 2 and len(nodes) > 2:
        graph.remove_node(rng.choice(nodes))
    elif op == 3:
        graph.add_node(f"m{graph.version}", labels=("A",), properties={"k": 1})
    else:
        graph.add_edge(
            f"me{graph.version}",
            rng.choice(nodes),
            rng.choice(nodes),
            labels=(rng.choice("ab"),),
        )


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_engine_results_deterministic(graph):
    from repro.gpc.parser import parse_query

    query = parse_query("TRAIL (x) ->{1,2} (y)")
    assert evaluate(query, graph) == evaluate(query, graph)
