"""Non-deterministic finite automata over graph-traversal steps.

Transitions come in two kinds:

- ``epsilon`` — consumes nothing;
- :class:`EdgeStep` — consumes one edge traversal in a direction
  (forward / backward / undirected), optionally constrained by a label.

This alphabet is rich enough to express 2RPQs (forward + backward
symbols), which is what the baselines build with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.direction import Direction
from repro.errors import EvaluationLimitError

__all__ = ["EdgeStep", "NFA", "NFABuilder"]


@dataclass(frozen=True)
class EdgeStep:
    """Consume one edge in the given direction; ``label`` of ``None``
    matches any edge."""

    direction: Direction
    label: Optional[str] = None

    def __str__(self) -> str:
        label = f":{self.label}" if self.label else ""
        return f"{self.direction.value}{label}"


@dataclass
class NFA:
    """An immutable-ish NFA: build with :class:`NFABuilder`.

    ``edge_transitions[q]`` lists ``(step, target)`` pairs;
    ``epsilon_transitions[q]`` is a set of targets.
    """

    num_states: int
    initial: int
    finals: frozenset[int]
    edge_transitions: tuple[tuple[tuple[EdgeStep, int], ...], ...]
    epsilon_transitions: tuple[frozenset[int], ...]


@dataclass
class NFABuilder:
    """Mutable builder for :class:`NFA` with a configurable state cap.

    The cap matters because GPC repetition bounds are written in binary
    (Appendix C): unrolling ``pi{n..m}`` into an automaton takes
    ``Theta(n)`` states, so pathological bounds are rejected with an
    explicit :class:`~repro.errors.EvaluationLimitError` rather than
    exhausting memory.
    """

    state_limit: int = 100_000
    _edges: list[list[tuple[EdgeStep, int]]] = field(default_factory=list)
    _eps: list[set[int]] = field(default_factory=list)

    def new_state(self) -> int:
        if len(self._edges) >= self.state_limit:
            raise EvaluationLimitError(
                f"automaton exceeded the state limit of {self.state_limit}; "
                f"repetition bounds may be too large "
                f"(raise EngineConfig.automaton_state_limit if intended)"
            )
        self._edges.append([])
        self._eps.append(set())
        return len(self._edges) - 1

    def add_edge_step(self, source: int, step: EdgeStep, target: int) -> None:
        self._edges[source].append((step, target))

    def add_epsilon(self, source: int, target: int) -> None:
        if source != target:
            self._eps[source].add(target)

    def build(self, initial: int, finals: frozenset[int] | set[int]) -> NFA:
        return NFA(
            num_states=len(self._edges),
            initial=initial,
            finals=frozenset(finals),
            edge_transitions=tuple(tuple(edges) for edges in self._edges),
            epsilon_transitions=tuple(frozenset(eps) for eps in self._eps),
        )
