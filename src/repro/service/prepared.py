"""Prepared queries: parse / typecheck / compile once, execute many.

A :class:`PreparedQuery` is the GPC analogue of a prepared statement.
Construction does all graph-independent work exactly once:

- parsing (when given concrete syntax), with every condition constant
  lifted into a parameter slot (:func:`repro.gpc.parser.parse_shape`),
- schema inference / type checking (Section 4),
- the static analysis, and register-NFA compilation and endpoint
  planning per pattern (memoised in a
  :class:`~repro.gpc.engine.QueryPlan`),
- the read footprint and the insights fingerprint.

All of it is built over the *template*, the query with
:class:`~repro.gpc.conditions_ast.Param` constants, so it serves every
text of the same shape (:func:`repro.gpc.parser.query_shape`):
:meth:`PreparedQuery.bind` gives a later text the same plan with its
own constants, and :meth:`PreparedQuery.execute` resolves them where
they meet the data (condition checks, pushed-atom masks, endpoint
candidates).

**Why one plan per shape is exact.** A constant occurs only in an atom
``x.k = c``. The Figure 2 typing rules, the register automaton's
structure, join keys and footprints never read ``c``. What does read
it compares it with ``==``: satisfaction, the snapshot's property
masks, endpoint candidates, the analyzer's ``!=`` between two
constants and the set/dict deduplication of atoms. Over the grammar's
literals (int, float without NaN, bool, str) ``==`` is an equivalence,
so a shape's key records which literals are ``==`` (they share a
slot) and its slots hold pairwise unequal values. Every comparison of
two constants then comes out the same on the template as on the text,
so the analyzer's verdict (``provably_empty``, the simplified query)
is a function of the shape; and one value of each class — its first —
stands for the class wherever a constant meets data.

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
from repro.gpc.footprint import query_footprint
from repro.gpc.parser import parse_query, parse_shape, query_shape
from repro.graph.property_graph import PropertyGraph
from repro.graph.snapshot import GraphSnapshot
from repro.obs.insights import query_fingerprint

__all__ = ["PreparedQuery"]


class PreparedQuery:
    """A parsed, typechecked, compiled — and re-executable — query.

    ``template`` is the query its plan was built over and ``values``
    what its parameter slots are bound to (``()`` for an AST input,
    whose template is the query itself).
    """

    __slots__ = (
        "text",
        "template",
        "values",
        "config",
        "plan",
        "footprint",
        "fingerprint",
        "_query",
    )

    def __init__(
        self,
        query: str | ast.Query,
        config: EngineConfig | None = None,
    ):
        if isinstance(query, str):
            self.text: str | None = query
            self.template, self.values = parse_shape(query)
        else:
            self.text = None
            self.template, self.values = query, ()
        self._query = None if self.values else self.template
        self.plan = QueryPlan(config)
        self.config = self.plan.config
        # Typechecks and compiles every automaton the query can need;
        # raises the same errors one-shot evaluation would.
        self.plan.precompile(self.template)
        #: The read footprint (see :mod:`repro.gpc.footprint`), which
        #: drives semantic result-cache invalidation in the service.
        self.footprint = query_footprint(self.template)
        #: The ``(fingerprint, canonical)`` pair insights aggregate by.
        self.fingerprint = query_fingerprint(self.template)

    @classmethod
    def cached(cls, plans, query: str | ast.Query, config) -> "PreparedQuery":
        """``query`` prepared through ``plans`` (an
        :class:`~repro.service.cache.LRUCache`): a text is keyed by its
        shape and bound to the shape's plan, an AST by itself."""
        if not isinstance(query, str):
            return plans.get_or_create((query, config), lambda: cls(query, config))
        key, values = query_shape(query)
        shaped = plans.get_or_create((key, config), lambda: cls(query, config))
        return shaped.bind(query, values)

    def bind(self, text: str, values: tuple) -> "PreparedQuery":
        """This plan for ``text``, a text of the same shape whose
        constants are ``values`` (:func:`~repro.gpc.parser.query_shape`)."""
        bound = object.__new__(PreparedQuery)
        for name in self.__slots__:
            setattr(bound, name, getattr(self, name))
        bound.text, bound.values = text, values
        bound._query = None if values else self.template
        return bound

    @property
    def query(self):
        """The query itself, constants in place (parsed on first use
        when the plan was bound to the text)."""
        if self._query is None:
            self._query = parse_query(self.text)
        return self._query

    def _own_plan(self) -> QueryPlan:
        """The plan to read :attr:`query` off: the shared one when the
        query is its template, else a fresh one, so what the cold paths
        read is the text's own and the shared plan gains no entries."""
        return self.plan if self.query is self.template else QueryPlan(self.config)

    @property
    def analysis(self):
        """The static analyzer's verdict for this query: the simplified
        query, an unsat proof when one exists, and lint diagnostics.
        See :mod:`repro.gpc.analysis`."""
        return self._own_plan().analysis(self.query)

    @property
    def diagnostics(self):
        """Static-analysis diagnostics for this query, as a tuple of
        :class:`~repro.gpc.analysis.Diagnostic` records."""
        return self.analysis.diagnostics

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
        evaluator = Evaluator(graph, self.config, plan=self.plan, values=self.values)
        return evaluator.evaluate(
            self.template, typecheck=False, start_restriction=start_restriction
        )

    def estimates(self, graph: PropertyGraph | GraphSnapshot):
        """The planner's :class:`~repro.gpc.planner.PlanEstimates` for
        this query over ``graph`` (memoised per graph version on the
        plan; they read labels and atom counts, never a constant). The
        pre-execution half of estimate-vs-actual insight accounting."""
        return self.plan.estimates(self.template, graph.snapshot())

    def explain(self, graph: PropertyGraph | GraphSnapshot | None = None) -> str:
        """The planner's strategy summary for this query.

        Pass a graph (or snapshot) to include cardinality estimates and
        candidate-node counts; without one the summary is
        graph-independent. See :meth:`repro.gpc.engine.QueryPlan.explain`.
        """
        return self._own_plan().explain(self.query, graph)

    def __repr__(self) -> str:
        shown = self.text if self.text is not None else self.query
        return f"PreparedQuery({shown!r})"
