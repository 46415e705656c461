"""Restrictors inside patterns — the Section 7 placement discussion.

The paper explains why GQL abandoned freely mixing restrictors: with
``trail [ shortest pi1 ] pi2``, the GQL rationale ("out of all the
answers to the query, choose the one with the shortest witness") can
force the *shortest* subpattern onto a path that is not shortest
between its endpoints. This module implements both readings so the
anomaly can be demonstrated and measured:

- **local semantics** (:class:`RestrictedSubpattern`): the restrictor
  is applied to the subpattern in isolation — the naive reading;
- **GQL-rationale semantics** (:func:`evaluate_gql_rationale`): the
  outer restrictor filters whole-query answers first, and *then* the
  inner ``shortest`` minimises the witness length among the survivors.

:func:`section7_anomaly` reproduces the paper's 3-node counterexample
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import RestrictorError
from repro.graph.generators import section7_counterexample
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph
from repro.gpc import ast
from repro.gpc.answers import Answer
from repro.gpc.engine import EngineConfig, Evaluator
from repro.gpc.semantics import restrict
from repro.gpc.types import PATH

__all__ = [
    "RestrictedSubpattern",
    "WitnessMarked",
    "evaluate_gql_rationale",
    "section7_anomaly",
    "AnomalyReport",
]


@dataclass(frozen=True)
class RestrictedSubpattern(ast.PatternExtension):
    """``rho pi`` as a *pattern* (not a query) under local semantics.

    ``trail``/``simple`` filter the subpattern's matches; ``shortest``
    keeps per-endpoint-pair minimum-length submatches. Local
    ``shortest`` is evaluated within the enclosing length bound, which
    is exact whenever the bound covers the subpattern's matches (always
    true under a query-level restrictor).
    """

    restrictor: ast.Restrictor
    pattern: ast.Pattern

    def children(self) -> tuple[ast.Pattern, ...]:
        return (self.pattern,)

    def with_children(self, children) -> "RestrictedSubpattern":
        return replace(self, pattern=children[0])

    def infer_schema_ext(self, child_schemas: list[dict]) -> dict:
        (schema,) = child_schemas
        return schema

    def min_path_length_ext(self, child_mins: list[int]) -> int:
        return child_mins[0]

    def max_path_length_ext(self, child_maxes) -> Optional[int]:
        return child_maxes[0]

    def evaluate_ext(self, evaluator, max_length: int):
        return restrict(
            self.restrictor, evaluator.evaluate(self.pattern, max_length)
        )


@dataclass(frozen=True)
class WitnessMarked(ast.PatternExtension):
    """Marks a subpattern and records its matched subpath in a hidden
    ``Path``-typed binding, so a global post-pass can minimise it."""

    pattern: ast.Pattern
    witness: str

    def children(self) -> tuple[ast.Pattern, ...]:
        return (self.pattern,)

    def with_children(self, children) -> "WitnessMarked":
        return replace(self, pattern=children[0])

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.witness})

    def infer_schema_ext(self, child_schemas: list[dict]) -> dict:
        (schema,) = child_schemas
        if self.witness in schema:
            raise RestrictorError(
                f"witness variable {self.witness!r} clashes with the pattern"
            )
        return {**schema, self.witness: PATH}

    def min_path_length_ext(self, child_mins: list[int]) -> int:
        return child_mins[0]

    def max_path_length_ext(self, child_maxes) -> Optional[int]:
        return child_maxes[0]

    def evaluate_ext(self, evaluator, max_length: int):
        for path, mu in evaluator.evaluate(self.pattern, max_length):
            yield (path, mu.bind(self.witness, path))


def evaluate_gql_rationale(
    graph: PropertyGraph,
    outer: ast.Restrictor,
    pattern_with_marker: ast.Pattern,
    witness: str,
    config: EngineConfig | None = None,
) -> frozenset[Answer]:
    """Evaluate under the GQL rationale: apply the *outer* restrictor
    to whole answers, then keep only answers whose recorded witness
    subpath (bound to ``witness`` by a :class:`WitnessMarked` marker)
    has minimum length among survivors with the same witness endpoints.
    The hidden binding is removed from the returned answers."""
    evaluator = Evaluator(graph, config)
    answers = evaluator.evaluate(ast.PatternQuery(outer, pattern_with_marker))
    minima: dict[tuple, int] = {}
    for answer in answers:
        sub = answer.assignment[witness]
        if not isinstance(sub, Path):
            raise RestrictorError(
                f"witness marker {witness!r} bound {type(sub).__name__}, "
                "expected a path"
            )
        key = (sub.src, sub.tgt)
        if key not in minima or len(sub) < minima[key]:
            minima[key] = len(sub)
    out = []
    for answer in answers:
        sub = answer.assignment[witness]
        if len(sub) == minima[(sub.src, sub.tgt)]:
            out.append(
                Answer(answer.paths, answer.assignment.drop((witness,)))
            )
    return frozenset(out)


@dataclass(frozen=True)
class AnomalyReport:
    """Measured outcome of the Section 7 counterexample."""

    true_shortest_length: int
    local_semantics_answers: int
    global_semantics_answers: int
    global_witness_length: int | None

    @property
    def anomaly_present(self) -> bool:
        """True when the surviving 'shortest' witness is longer than
        the true shortest path — the paper's counter-intuitive case."""
        return (
            self.global_witness_length is not None
            and self.global_witness_length > self.true_shortest_length
        )


def _counterexample_parts() -> tuple[ast.Pattern, ast.Pattern]:
    # shortest (:A) -[x]->{0,} (:B)   and   (:B) <-[y:a]-{0,} (:A)
    inner = ast.concat(
        ast.node(label="A"),
        ast.Repeat(ast.forward("x"), 0, None),
        ast.node(label="B"),
    )
    tail = ast.concat(
        ast.node(label="B"),
        ast.Repeat(ast.backward("y", "a"), 0, None),
        ast.node(label="A"),
    )
    return inner, tail


def section7_anomaly(
    config: EngineConfig | None = None,
) -> AnomalyReport:
    """Reproduce the Section 7 counterexample on its 3-node graph."""
    graph = section7_counterexample()
    inner, tail = _counterexample_parts()

    # Local semantics: inner shortest evaluated in isolation.
    local_pattern = ast.Concat(
        RestrictedSubpattern(ast.Restrictor.SHORTEST, inner), tail
    )
    evaluator = Evaluator(graph, config)
    local = evaluator.evaluate(
        ast.PatternQuery(ast.Restrictor.TRAIL, local_pattern)
    )

    # GQL rationale: trail first, then minimise the witness.
    marked = ast.Concat(WitnessMarked(inner, "__w"), tail)
    global_answers = evaluate_gql_rationale(
        graph, ast.Restrictor.TRAIL, marked, "__w", config
    )

    # The true shortest A -> B distance, for reference.
    reference = evaluator.evaluate(ast.PatternQuery(ast.Restrictor.SHORTEST, inner))
    true_shortest = min(len(answer.path) for answer in reference)

    witness_length: int | None = None
    for answer in global_answers:
        x_binding = answer.assignment["x"]
        witness_length = len(x_binding.entries)  # one entry per edge
        break
    return AnomalyReport(
        true_shortest_length=true_shortest,
        local_semantics_answers=len(local),
        global_semantics_answers=len(global_answers),
        global_witness_length=witness_length,
    )
