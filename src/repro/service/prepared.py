"""Prepared queries: parse / typecheck / compile once, execute many.

A :class:`PreparedQuery` is the GPC analogue of a prepared statement.
Construction does all graph-independent work exactly once:

- parsing (when given concrete syntax),
- schema inference / type checking (Section 4),
- register-NFA compilation for ``shortest`` evaluation — of the
  pattern, or of its erasure where the compiler refuses the pattern
  (memoised per pattern in a :class:`~repro.gpc.engine.QueryPlan`).

:meth:`PreparedQuery.execute` then runs the compiled plan against any
graph — or any *version* of a graph — paying only the evaluation cost.
After construction the plan is read-only, so one prepared query can be
executed from many threads concurrently (each execution builds its own
:class:`~repro.gpc.engine.Evaluator` over an immutable snapshot).
"""

from __future__ import annotations

from repro.gpc import ast
from repro.gpc.answers import Answer
from repro.gpc.engine import EngineConfig, Evaluator, QueryPlan
from repro.gpc.footprint import QueryFootprint, query_footprint
from repro.gpc.parser import parse_query
from repro.graph.property_graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """A parsed, typechecked, compiled — and re-executable — query."""

    __slots__ = ("text", "query", "config", "plan", "_footprint")

    def __init__(
        self,
        query: str | ast.Query,
        config: EngineConfig | None = None,
    ):
        if isinstance(query, str):
            self.text: str | None = query
            self.query = parse_query(query)
        else:
            self.text = None
            self.query = query
        self.plan = QueryPlan(config)
        self.config = self.plan.config
        self._footprint: QueryFootprint | None = None
        # Typechecks and compiles every automaton the query can need;
        # raises the same errors one-shot evaluation would.
        self.plan.precompile(self.query)

    @property
    def analysis(self):
        """The static analyzer's verdict for this query (memoised on
        the plan): the simplified query, an unsat proof when one
        exists, and lint diagnostics. See :mod:`repro.gpc.analysis`."""
        return self.plan.analysis(self.query)

    @property
    def diagnostics(self):
        """Static-analysis diagnostics for this query, as a tuple of
        :class:`~repro.gpc.analysis.Diagnostic` records."""
        return self.analysis.diagnostics

    @property
    def footprint(self) -> QueryFootprint:
        """The query's read footprint (memoised; see
        :mod:`repro.gpc.footprint`). Drives semantic result-cache
        invalidation in the service layer."""
        footprint = self._footprint
        if footprint is None:
            footprint = query_footprint(self.query)
            self._footprint = footprint
        return footprint

    def execute(
        self,
        graph: PropertyGraph | GraphSnapshot,
        *,
        start_restriction=None,
    ) -> frozenset[Answer]:
        """Evaluate against ``graph`` reusing the compiled plan.

        Equivalent to ``Evaluator(graph, config).evaluate(query)`` —
        same answers, none of the per-call compilation.

        ``start_restriction`` (a collection of node ids) keeps only the
        answers whose first path starts at one of the given nodes,
        evaluated natively by the engine — the scatter/gather seam used
        by :mod:`repro.cluster` to shard evaluation across workers.
        """
        evaluator = Evaluator(graph, self.config, plan=self.plan)
        return evaluator.evaluate(
            self.query, typecheck=False, start_restriction=start_restriction
        )

    def estimates(self, graph: PropertyGraph | GraphSnapshot):
        """The planner's :class:`~repro.gpc.planner.PlanEstimates` for
        this query over ``graph`` (memoised per graph version on the
        plan). The pre-execution half of estimate-vs-actual insight
        accounting."""
        return self.plan.estimates(self.query, graph.snapshot())

    def explain(self, graph: PropertyGraph | GraphSnapshot | None = None) -> str:
        """The planner's strategy summary for this query.

        Pass a graph (or snapshot) to include cardinality estimates and
        candidate-node counts; without one the summary is
        graph-independent. See :meth:`repro.gpc.engine.QueryPlan.explain`.
        """
        return self.plan.explain(self.query, graph)

    def __repr__(self) -> str:
        shown = self.text if self.text is not None else self.query
        return f"PreparedQuery({shown!r})"
