"""The GPC query engine: restrictors, queries, joins (Section 5).

:class:`Evaluator` ties everything together:

- every pattern compiles into one register automaton under the
  configured ``collect`` mode (:mod:`repro.gpc.register_nfa`). An
  exact one serves the pattern: ``trail`` and ``simple`` walk it, never
  repeating an edge (a node), and ``shortest`` keeps, per endpoint
  pair, the answers whose path has the minimum length its search finds;
- an arithmetic condition, a nested restrictor or a witness marker
  makes it over-approximate (exact ``shortest`` under counts is
  undecidable, Proposition 14). Then ``trail`` and ``simple`` take the
  bounded evaluator (:mod:`repro.gpc.semantics`) at the Lemma 16
  bounds ``|E_d| + |E_u|`` and ``|N|``, pruning as it builds, and an
  unbounded ``shortest`` is *iteratively deepened* until every pair the
  automaton connects has been found (or refuted at the configured cap);
- queries are restricted patterns, optionally named (``x = r p``), and
  joins combine answers by unifying assignments (the type system
  guarantees only singleton variables are shared).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

from repro.errors import EvaluationLimitError
from repro.obs.counters import active_counters
from repro.obs.deadline import check_deadline
from repro.graph.ids import NodeId
from repro.graph.property_graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.gpc import ast
from repro.gpc.answers import Answer
from repro.gpc.assignments import Assignment
from repro.gpc.collect import CollectMode
from repro.gpc.minlength import max_path_length, validate_approach1
from repro.gpc.planner import (
    BOUNDED_FILTER,
    DEEPENING,
    REGISTER,
    PlanEstimates,
    ShortestPlan,
    bind_variable,
    estimate_plan,
    estimate_query_cardinality,
    explain_plan,
    join_shared_variables,
    plan_shortest,
)
from repro.gpc.analysis import QueryAnalysis, analyze_query, render_diagnostics
from repro.gpc.semantics import (
    PATH_PREDICATES,
    BoundedEvaluator,
    Match,
    _Limits,
    restrict,
)
from repro.gpc.typing import infer_schema
from repro.gpc.values import Nothing
from repro.gpc.register_nfa import (
    RegisterNFA,
    compile_register_nfa,
    coreachable,
    lower_program,
    shortest_pair_lengths,
    witness_search,
)

__all__ = ["EngineConfig", "Evaluator", "QueryPlan", "evaluate", "CollectMode"]


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    ``collect_mode``
        Which of the paper's three ``collect`` approaches to use
        (Section 5); GROUPING (Approach 3) is the paper's default.
    ``shortest_deepening_limit``
        Hard ceiling for iterative deepening under ``shortest``, the
        route of an unbounded pattern whose register NFA over-approximates
        it (a Section 7 wrapper). When candidate endpoint pairs remain unresolved at this length,
        the engine raises :class:`~repro.errors.EvaluationLimitError`
        rather than silently dropping potentially valid answers
        (set ``lenient_shortest=True`` to accept the answers found by
        then: a pair the automaton connects but the pattern never
        matches cannot always be refuted, Proposition 14).
    ``automaton_state_limit``
        Cap on the states of a pattern's compiled register automaton
        (repetition bounds unroll).
    ``max_intermediate_results`` / ``max_power_iterations``
        Resource fail-safes for the bounded evaluator.
    ``use_planner``
        Enables the cost-aware optimisations from
        :mod:`repro.gpc.planner` (hash joins, cardinality-ordered join
        sides, endpoint-pruned ``shortest`` starts). All of them are
        answer-preserving; the flag exists so benchmarks and
        differential tests can compare against naive evaluation.
    ``use_pushdown``
        Enables predicate pushdown in the ``shortest`` register
        compiler: ``x.key = const`` atoms move from final CHECK ops to
        the bind/step sites of ``x`` (bitmask probes over the columnar
        core), which also frees the search from carrying ``x``'s
        register. Answer-preserving by construction; the flag exists
        for differential testing and A/B benchmarks.
    ``use_analysis``
        Enables the static analyzer (:mod:`repro.gpc.analysis`):
        queries it proves empty short-circuit to the empty answer set
        without touching the snapshot, and otherwise the simplified
        query (constant-folded conditions, pruned dead union branches)
        is evaluated in place of the original. Answer-preserving —
        gated by a hypothesis differential suite; the flag exists for
        that suite and A/B benchmarks.
    """

    collect_mode: CollectMode = CollectMode.GROUPING
    shortest_deepening_limit: int = 4096
    lenient_shortest: bool = False
    automaton_state_limit: int = 100_000
    max_intermediate_results: int = 2_000_000
    max_power_iterations: int = 10_000
    use_planner: bool = True
    use_pushdown: bool = True
    use_analysis: bool = True


DEFAULT_CONFIG = EngineConfig()


class PatternPlan:
    """What a :class:`QueryPlan` derives from one pattern, each part
    computed on first use: the endpoint constraints, the pattern's
    register NFA, the :attr:`route` its pattern queries take — decided
    once, executed by the evaluator and printed by ``explain`` — and
    where its witnesses get their assignments."""

    def __init__(self, pattern: ast.Pattern, config: EngineConfig):
        self.pattern = pattern
        self.config = config

    @cached_property
    def shortest_plan(self) -> ShortestPlan:
        """Endpoint-pruning constraints for a ``shortest`` pattern."""
        return plan_shortest(self.pattern)

    @cached_property
    def nfa(self) -> RegisterNFA:
        """The pattern's register NFA: exact, or the over-approximation
        the deepening route takes its candidate pairs from."""
        return compile_register_nfa(
            self.pattern,
            self.config.automaton_state_limit,
            self.config.use_pushdown,
            self.config.collect_mode,
        )

    @cached_property
    def route(self) -> tuple[str, RegisterNFA | None, str | None]:
        """How the pattern is served (a bare ``shortest``'s name, which
        ``explain`` prints), its register NFA on the register route
        and, off it, why the NFA cannot serve it: it over-approximates.
        Such a pattern runs the specification: the bounded evaluator at
        its length bound or, unbounded, deepened."""
        nfa = self.nfa
        if nfa.exact:
            return REGISTER, nfa, None
        names = " and ".join(dict.fromkeys(nfa.approximated))
        why = f"the automaton runs the child of {names} in its place"
        bounded = max_path_length(self.pattern) is not None
        return BOUNDED_FILTER if bounded else DEEPENING, None, why

    @cached_property
    def padding(self) -> dict[str, object]:
        """``Nothing`` for every schema variable: padded with it, the
        registers of an accepting run on the register route are the
        assignment of the walk it accepts (the run's union branches
        may not mention every variable)."""
        return {variable: Nothing for variable in infer_schema(self.pattern)}


class QueryPlan:
    """Graph-independent compiled artifacts for queries.

    A plan memoises everything about a query that does *not* depend on
    the graph: schema inference (type checking), the static analysis,
    join keys and one :class:`PatternPlan` per pattern (the automata
    ``shortest`` runs and the route it takes). Plans are the reuse unit
    of prepared queries (:mod:`repro.service`): compile once, execute
    against any graph or graph version.

    Compilation is lazy (first use memoises) unless :meth:`precompile`
    is called; after precompilation the plan is effectively read-only
    and safe to share across threads.
    """

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or DEFAULT_CONFIG
        self._patterns: dict[ast.Pattern, PatternPlan] = {}
        self._typechecked: set[ast.Expression] = set()
        self._join_variables: dict[ast.Join, tuple[str, ...]] = {}
        self._analyses: dict[ast.Query, QueryAnalysis] = {}
        #: ``(query, snapshot version)`` → :class:`PlanEstimates`;
        #: bounded (estimates are cheap to recompute) and keyed by
        #: version because cardinalities shift with the graph.
        self._estimates: dict[tuple, PlanEstimates] = {}

    def ensure_typechecked(self, expression: ast.Expression) -> None:
        """Run ``infer_schema`` once per expression (raises on error)."""
        if expression not in self._typechecked:
            infer_schema(expression)
            self._typechecked.add(expression)

    def analysis(self, query: ast.Query) -> QueryAnalysis:
        """The static analyzer's verdict for ``query``, memoised here.
        Its unanchored-``shortest`` check reads :meth:`shortest_plan`,
        so analyzer and search share one record per pattern.
        Computed on demand regardless of ``config.use_analysis``: lint
        and explain always report diagnostics, the flag only gates
        whether the *evaluator* acts on the verdict."""
        found = self._analyses.get(query)
        if found is None:
            self.ensure_typechecked(query)
            found = self._analyses[query] = analyze_query(
                query, self.shortest_plan
            )
        return found

    def provably_empty(self, query: ast.Query) -> bool:
        """Whether the analyzer proved the query empty on every graph."""
        return self.analysis(query).provably_empty

    def diagnostics(self, query: ast.Query):
        """The analyzer's :class:`~repro.gpc.analysis.Diagnostic`
        records for ``query``."""
        return self.analysis(query).diagnostics

    def pattern_plan(self, pattern: ast.Pattern) -> PatternPlan:
        """The plan's one record for ``pattern``."""
        found = self._patterns.get(pattern)
        if found is None:
            found = self._patterns[pattern] = PatternPlan(pattern, self.config)
        return found

    def register_nfa(self, pattern: ast.Pattern) -> RegisterNFA | None:
        """The pattern's register NFA on the register route, else
        ``None`` (:attr:`PatternPlan.route` then says why)."""
        return self.pattern_plan(pattern).route[1]

    def shortest_plan(self, pattern: ast.Pattern) -> ShortestPlan:
        """:attr:`PatternPlan.shortest_plan` of ``pattern``."""
        return self.pattern_plan(pattern).shortest_plan

    def join_variables(self, join: ast.Join) -> tuple[str, ...]:
        """The join's shared singleton variables (hash-join keys)."""
        if join not in self._join_variables:
            self._join_variables[join] = join_shared_variables(join)
        return self._join_variables[join]

    def estimates(self, query: ast.Query, view) -> PlanEstimates:
        """The planner's :class:`PlanEstimates` for ``query`` over
        ``view`` (a snapshot or graph), memoised per graph version."""
        key = (query, view.version)
        found = self._estimates.get(key)
        if found is None:
            if len(self._estimates) >= 8:
                self._estimates.clear()
            found = estimate_plan(query, view, plan=self)
            self._estimates[key] = found
        return found

    def explain(self, query: ast.Query, graph=None) -> str:
        """Human-readable summary of the strategies chosen for
        ``query`` (see :func:`repro.gpc.planner.explain_plan`); pass a
        graph or snapshot to include cardinality estimates."""
        self.ensure_typechecked(query)
        view = None if graph is None else graph.snapshot()
        report = explain_plan(query, view, plan=self)
        analysis = self.analysis(query)
        if analysis.provably_empty and self.config.use_analysis:
            report += (
                "\nanalysis: provably empty — evaluation short-circuits"
                " to the empty answer set"
            )
        return report + "\n" + render_diagnostics(analysis.diagnostics)

    def precompile(self, query: ast.Query) -> None:
        """Typecheck and compile every automaton the query can need."""
        self.ensure_typechecked(query)
        target = query
        if self.config.use_analysis:
            analysis = self.analysis(query)
            if analysis.provably_empty:
                # The evaluator never touches the snapshot (or any
                # automaton) for a proven-empty query.
                return
            if analysis.simplified is not query:
                self.ensure_typechecked(analysis.simplified)
                target = analysis.simplified
        for pattern_query in self._pattern_queries(target):
            record = self.pattern_plan(pattern_query.pattern)
            _ = record.shortest_plan, record.padding, record.route

    def _pattern_queries(self, query: ast.Query):
        for current in ast.iter_queries(query):
            if isinstance(current, ast.PatternQuery):
                yield current
            else:
                self.join_variables(current)


class Evaluator:
    """Evaluates GPC queries over a fixed property graph.

    The evaluator works against an immutable :class:`GraphSnapshot` of
    the graph taken at construction time (memoised per version by
    :meth:`PropertyGraph.snapshot`), so its hot paths read pre-built
    tuple indexes instead of re-freezing adjacency sets. Mutations made
    to the graph after construction are not observed — build a new
    evaluator (or use :class:`repro.service.GraphService`, which does
    so automatically).

    ``values`` binds the :class:`~repro.gpc.conditions_ast.Param`
    constants of the queries it evaluates (a query shape's, see
    :func:`repro.gpc.parser.parse_shape`), where they meet the data: in
    condition checks, pushed-atom masks and endpoint candidates.
    """

    def __init__(
        self,
        graph: PropertyGraph | GraphSnapshot,
        config: EngineConfig | None = None,
        plan: QueryPlan | None = None,
        values: tuple = (),
    ):
        self.graph = graph
        self.values = values
        if config is not None and plan is not None and plan.config != config:
            raise ValueError(
                f"Evaluator config {config!r} disagrees with the plan's "
                f"compile-time config {plan.config!r}; the plan's automata "
                f"were compiled under its own limits, so mixing the two "
                f"would silently apply inconsistent settings. Pass only "
                f"one of them, or make them equal."
            )
        if config is None:
            config = plan.config if plan is not None else DEFAULT_CONFIG
        self.config = config
        self.plan = plan if plan is not None else QueryPlan(config)
        self._view = graph.snapshot()
        limits = _Limits(
            max_intermediate_results=self.config.max_intermediate_results,
            max_power_iterations=self.config.max_power_iterations,
        )
        bounded = partial(
            BoundedEvaluator, self._view, self.config.collect_mode, limits, values=values
        )
        self._bounded = bounded()
        #: Per restrictor mode: the Lemma 16 length bound and a bounded
        #: evaluator that prunes by the mode's path predicate (with its
        #: own memo: what it keeps is not the plain denotation).
        self._modes = {
            mode: (bound, bounded(keep=PATH_PREDICATES[mode]))
            for mode, bound in (
                ("trail", self._view.num_edges),
                ("simple", self._view.num_nodes),
            )
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(
        self,
        query: ast.Query,
        *,
        typecheck: bool = True,
        start_restriction: "frozenset[NodeId] | None" = None,
    ) -> frozenset[Answer]:
        """Compute ``[[Q]]_G`` — always finite (Theorem 10).

        ``typecheck=False`` skips the upfront schema inference; only
        pass it for queries already checked (e.g. by a prepared query's
        plan).

        ``start_restriction`` restricts evaluation to the answers whose
        *first* path starts at one of the given nodes — for a join,
        that is the leftmost pattern query, whose path is always
        ``answer.paths[0]``. The restriction is applied natively (the
        register search or walk is seeded only from restricted nodes;
        the bounded route filters by start node before minimising), so

        ``evaluate(q, start_restriction=R)
          == {a in evaluate(q) : a.paths[0].src in R}``

        and evaluating a query once per cell of a partition of the
        node set unions losslessly to the full answer set. This is the
        scatter/gather seam used by :mod:`repro.cluster`.
        """
        if typecheck:
            self.plan.ensure_typechecked(query)
        restriction = (
            None if start_restriction is None else frozenset(start_restriction)
        )
        if self.config.use_analysis and isinstance(
            query, (ast.PatternQuery, ast.Join)
        ):
            analysis = self.plan.analysis(query)
            counters = active_counters()
            if analysis.provably_empty:
                # Short-circuit without touching the snapshot — but the
                # original query must still surface the validation
                # errors full evaluation would have raised (the same
                # principle as _eval_join's skipped-side handling:
                # query validity must not become analysis-dependent).
                for pattern_query in self.plan._pattern_queries(query):
                    self._validate_collect(pattern_query.pattern)
                if counters is not None:
                    counters.queries_proven_empty += 1
                return frozenset()
            if analysis.simplified is not query:
                if counters is not None:
                    counters.conditions_simplified += (
                        analysis.conditions_simplified
                    )
                    counters.dead_branches_pruned += (
                        analysis.dead_branches_pruned
                    )
                # Validate the original's collects before substituting:
                # a pruned branch may contain the construct SYNTACTIC
                # mode rejects.
                for pattern_query in self.plan._pattern_queries(query):
                    self._validate_collect(pattern_query.pattern)
                self.plan.ensure_typechecked(analysis.simplified)
                query = analysis.simplified
        return self._eval_query(query, restriction)

    def eval_pattern(
        self, pattern: ast.Pattern, max_length: int | None = None
    ) -> frozenset[Match]:
        """Bounded pattern denotation ``{(p, mu) : len(p) <= L}``.

        Patterns alone have no restrictor; a length bound must come
        from the caller. When none is given, the trail bound ``|E|`` is
        used (every longer path repeats an edge).
        """
        self.plan.ensure_typechecked(pattern)
        self._validate_collect(pattern)
        if max_length is None:
            max_length = self._view.num_edges
        return self._bounded.evaluate(pattern, max_length)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _eval_query(
        self,
        query: ast.Query,
        restriction: frozenset[NodeId] | None = None,
    ) -> frozenset[Answer]:
        if isinstance(query, ast.PatternQuery):
            matches = self._eval_restricted(
                query.restrictor, query.pattern, restriction
            )
            out = []
            for path, mu in matches:
                if query.name is not None:
                    mu = mu.bind(query.name, path)
                out.append(Answer((path,), mu))
            return frozenset(out)
        if isinstance(query, ast.Join):
            return self._eval_join(query, restriction)
        raise TypeError(f"not a query: {query!r}")

    def _eval_join(
        self,
        query: ast.Join,
        restriction: frozenset[NodeId] | None = None,
    ) -> frozenset[Answer]:
        """Join two answer sets.

        With the planner enabled, the side with the smaller estimated
        cardinality is evaluated first (an empty result short-circuits
        the other side entirely) and the sides are hash-joined on their
        shared singleton variables. Without it, this is the naive
        nested-loop product. Both produce identical answer sets:
        answers combine iff they agree on the shared variables, which
        is exactly bucket equality.

        A start restriction always flows into the *left* side: combined
        path tuples concatenate left-to-right, so ``paths[0]`` — the
        path the restriction is defined over — comes from the leftmost
        pattern query regardless of which side is evaluated first. The
        left side's estimate is scaled by the share of nodes the
        restriction keeps, so a small seed set runs first and a cluster
        cell still leaves the order to the estimates.

        When the left side runs first and the right side's paths start
        at a shared variable (:func:`~repro.gpc.planner.bind_variable`),
        the right side is restricted to the left answers' values of it
        — a *bind join*: no other right answer can combine.
        """
        if not self.config.use_planner:
            left = self._eval_query(query.left, restriction)
            right = self._eval_query(query.right)
            return _nested_loop_join(left, right)
        left_estimate = estimate_query_cardinality(query.left, self._view, self.plan)
        if restriction is not None:
            left_estimate *= len(restriction) / max(self._view.num_nodes, 1)
        left_first = left_estimate <= estimate_query_cardinality(
            query.right, self._view, self.plan
        )
        first = self._eval_query(
            query.left if left_first else query.right,
            restriction if left_first else None,
        )
        if not first:
            # The join is empty regardless of the other side — but the
            # skipped side must still surface the validation errors
            # naive evaluation would have raised (e.g. CollectError
            # under Approach 1), or query validity becomes
            # data-dependent.
            skipped = query.right if left_first else query.left
            for pattern_query in self.plan._pattern_queries(skipped):
                self._validate_collect(pattern_query.pattern)
            return frozenset()
        shared = self.plan.join_variables(query)
        if not left_first:
            second = self._eval_query(query.left, restriction)
            return _hash_join(second, first, shared)
        # Typing makes a shared variable a node on both sides, so every
        # left answer binds it.
        bound = bind_variable(query, shared)
        starts = None if bound is None else frozenset(
            answer.assignment[bound] for answer in first
        )
        second = self._eval_query(query.right, starts)
        return _hash_join(first, second, shared)

    # ------------------------------------------------------------------
    # Restrictors
    # ------------------------------------------------------------------

    def _eval_restricted(
        self,
        restrictor: ast.Restrictor,
        pattern: ast.Pattern,
        restriction: frozenset[NodeId] | None = None,
    ) -> frozenset[Match]:
        self._validate_collect(pattern)
        check_deadline()
        route, _nfa, _why = self.plan.pattern_plan(pattern).route
        if route is REGISTER:
            matches = self._eval_shortest(pattern, restriction, restrictor.mode)
            minima = restrictor.shortest and restrictor.mode is not None
            return restrict(ast.Restrictor.SHORTEST, matches) if minima else matches
        if restrictor.mode is not None:
            # The evaluator drops the failing paths it builds; an atomic
            # match is built by no step (one self-loop edge is not
            # simple), so ``restrict`` still filters below.
            bound, bounded = self._modes[restrictor.mode]
            matches = bounded.evaluate(pattern, bound)
        elif route is DEEPENING:
            matches = self._eval_deepening(pattern, restriction)
        else:
            bound = max_path_length(pattern)
            matches = self._bounded.evaluate(pattern, bound)
        if restriction is not None:
            # Before minimising is safe: minima are taken per (src,
            # tgt) pair, so dropping whole pairs never changes the
            # minimum of a kept pair.
            matches = [m for m in matches if m[0].src in restriction]
        return restrict(restrictor, matches)

    def _eval_shortest(
        self,
        pattern: ast.Pattern,
        restriction: frozenset[NodeId] | None = None,
        mode: str | None = None,
    ) -> frozenset[Match]:
        """``shortest pi`` on the register route, or ``trail`` /
        ``simple pi`` with ``mode``.

        The pattern's register NFA (:mod:`repro.gpc.register_nfa`)
        gives the *exact* minimum match length per endpoint pair, and
        only the witnesses of that length are materialised — under a
        mode, every walk that repeats no edge (node) is one — one
        enumeration per seed serves all of the seed's pairs and runs
        the NFA exactly, so a witness arrives with the registers of its
        accepting runs, which, padded (:attr:`PatternPlan.padding`),
        are its assignments.
        """
        record = self.plan.pattern_plan(pattern)
        _route, rnfa, _why = record.route
        padding = record.padding
        answers: set[Match] = set()
        search = self._search(pattern, rnfa, restriction)
        if search is None:
            return frozenset()
        starts, end_filter, program, reach = search
        counters = active_counters()
        if counters is not None:
            counters.conditions_pushed += rnfa.pushed_atoms
        # The registers of a witness's runs *are* its assignments, so
        # the witness pass tracks every variable and every group
        # register; the search carries only the variables that can
        # constrain a run. Under ``shortest`` the targets are exact
        # lengths: no reach test.
        walks_from = witness_search(
            program.retracked((*rnfa.sites, *rnfa.groups)),
            mode,
            reach if mode else None,
        )
        for start in starts:
            # Checked once per seed here; the witness enumeration
            # checks again every fixed number of edge expansions.
            check_deadline()
            if mode is not None:
                budget = self.config.max_intermediate_results - len(answers)
                walks = walks_from(start, end_filter, budget)
            else:
                best = shortest_pair_lengths(program, start, reach=reach)
                targets = {
                    end: length
                    for end, length in best.items()
                    if end_filter is None or end in end_filter
                }
                # One enumeration serves every target of the seed.
                walks = walks_from(start, targets)
            for witnesses in walks.values():
                answers.update(
                    (witness, Assignment(padding | dict(registers)))
                    for witness, runs in witnesses
                    for registers in runs
                )
        return frozenset(answers)

    def _shortest_candidates(
        self,
        pattern: ast.Pattern,
        restriction: frozenset[NodeId] | None = None,
    ):
        """Start nodes to seed the register search from, and an
        optional end-node filter.

        Every match starts (ends) at a node satisfying the pattern's
        leading (trailing) constraints, so restricting the search to
        the planner's candidates drops no answers. Snapshot carriers
        are pre-sorted tuples — iterate them directly instead of
        re-sorting per query. A caller-supplied start restriction
        intersects the candidate starts, so every per-start register
        search outside the restriction is skipped entirely — this is
        what makes partitioned scatter/gather evaluation do ``1/K`` of
        the work per shard rather than filtering full answer sets.
        """
        if self.config.use_planner:
            shortest_plan = self.plan.shortest_plan(pattern)
            starts = shortest_plan.start.candidate_nodes(self._view, self.values)
            ends = shortest_plan.end.candidate_nodes(self._view, self.values)
            if starts is not None:
                counters = active_counters()
                if counters is not None:
                    counters.seeds_pruned += self._view.num_nodes - len(starts)
        else:
            starts = ends = None
        if starts is None:
            starts = self._view.nodes
        if restriction is not None:
            # ``starts`` is already sorted; filtering preserves order.
            starts = tuple(n for n in starts if n in restriction)
        return starts, (None if ends is None else frozenset(ends))

    def _search(
        self,
        pattern: ast.Pattern,
        nfa: RegisterNFA,
        restriction: frozenset[NodeId] | None = None,
    ):
        """The seeds and end filter of :meth:`_shortest_candidates`,
        ``nfa`` lowered once for every seed and the states that reach
        an end; ``None`` when the planner proves there is nothing."""
        starts, end_filter = self._shortest_candidates(pattern, restriction)
        if not starts or end_filter == frozenset():
            return None
        program = lower_program(nfa, self._view, values=self.values)
        reach = None if end_filter is None else coreachable(program, end_filter)
        return starts, end_filter, program, reach

    def _deepening_candidates(
        self,
        pattern: ast.Pattern,
        restriction: frozenset[NodeId] | None = None,
    ) -> dict[tuple[NodeId, NodeId], int]:
        """The endpoint pairs the pattern's NFA connects, each at its
        minimum length: when the NFA over-approximates, a superset of
        the pattern's pairs and lower bounds on their minima. Found by
        :meth:`_eval_shortest`'s search."""
        search = self._search(pattern, self.plan.pattern_plan(pattern).nfa, restriction)
        if search is None:
            return {}
        starts, end_filter, program, reach = search
        candidates: dict[tuple[NodeId, NodeId], int] = {}
        for start in starts:
            check_deadline()
            for end, length in shortest_pair_lengths(program, start, reach=reach).items():
                if end_filter is None or end in end_filter:
                    candidates[start, end] = length
        return candidates

    def _eval_deepening(
        self,
        pattern: ast.Pattern,
        restriction: frozenset[NodeId] | None = None,
    ) -> frozenset[Match]:
        """The bounded denotation of ``pattern`` at a length by which
        every candidate pair (:meth:`_deepening_candidates`) has
        matched: the deepening route of ``shortest``."""
        candidates = self._deepening_candidates(pattern, restriction)
        if not candidates:
            return frozenset()
        limit = self.config.shortest_deepening_limit
        # Start at the *smallest* lower bound and deepen geometrically:
        # most pairs resolve early, and evaluating at unnecessarily
        # large bounds explodes (answer sets grow exponentially with
        # the length horizon — Theorem 13).
        length = max(1, min(candidates.values()))
        counters = active_counters()
        while True:
            if counters is not None:
                counters.deepening_rounds += 1
            check_deadline()
            results = self._bounded.evaluate(pattern, length)
            remaining = candidates.keys() - {
                (m[0].src, m[0].tgt) for m in results
            }
            if not remaining or (
                length >= limit and self.config.lenient_shortest
            ):
                return results
            if length >= limit:
                why = self.plan.pattern_plan(pattern).route[2]
                raise EvaluationLimitError(
                    f"shortest: {len(remaining)} candidate endpoint pair(s) "
                    f"unresolved at deepening limit {limit}; the pattern "
                    f"deepens ({why}), so they may be unmatchable or "
                    f"require longer paths. Raise "
                    f"EngineConfig.shortest_deepening_limit or set "
                    f"lenient_shortest=True."
                )
            length = min(length * 2, limit)

    def _validate_collect(self, pattern: ast.Pattern) -> None:
        if self.config.collect_mode is CollectMode.SYNTACTIC:
            validate_approach1(pattern)


def _nested_loop_join(
    left: frozenset[Answer], right: frozenset[Answer]
) -> frozenset[Answer]:
    """Combine every left/right pair whose assignments unify."""
    counters = active_counters()
    if counters is not None:
        counters.join_build_rows += len(left)
        counters.join_probe_rows += len(left) * len(right)
    out = []
    for left_answer in left:
        for right_answer in right:
            combined = left_answer.combine(right_answer)
            if combined is not None:
                out.append(combined)
    return frozenset(out)


def _hash_join(
    left: frozenset[Answer],
    right: frozenset[Answer],
    shared: tuple[str, ...],
) -> frozenset[Answer]:
    """Combine two answer sets, bucketing on the shared variables.

    The hash table is built on the smaller side; path-tuple order in
    the combined answers always follows the query's left-to-right join
    order, so the result is identical to the nested loop's. Rows are
    keyed on the shared variables' values themselves (element ids are
    tuples, hashed in C); ``combine()`` re-unifies every bucket mate.
    """
    if not left or not right:
        return frozenset()
    if not shared:
        # Disjoint schemas: the join is a plain cross product.
        return _nested_loop_join(left, right)

    def key_of(answer: Answer) -> tuple:
        get = answer.assignment.get
        return tuple(get(v) for v in shared)

    if len(left) <= len(right):
        build, probe, build_is_left = left, right, True
    else:
        build, probe, build_is_left = right, left, False
    counters = active_counters()
    if counters is not None:
        counters.join_build_rows += len(build)
        counters.join_probe_rows += len(probe)
    buckets: dict[tuple, list[Answer]] = {}
    for answer in build:
        buckets.setdefault(key_of(answer), []).append(answer)
    out = []
    for answer in probe:
        for mate in buckets.get(key_of(answer), ()):
            combined = (
                mate.combine(answer) if build_is_left else answer.combine(mate)
            )
            if combined is not None:
                out.append(combined)
    return frozenset(out)


def evaluate(
    query: ast.Query,
    graph: PropertyGraph,
    config: EngineConfig | None = None,
) -> frozenset[Answer]:
    """Convenience one-shot evaluation of a query over a graph."""
    return Evaluator(graph, config).evaluate(query)
