"""Engine work counters: *what* the evaluator did, not just how long.

Latency says a query was slow; :class:`EvalCounters` says why — the
register NFA expanded two million states, or the deepening loop ran
eleven rounds, or a join probed 40k rows. The engine fills one
instance in-line per evaluation through the ``active_counters()``
ambient accessor (a :class:`~contextvars.ContextVar`, so concurrent
evaluations on the service executor never share a struct).

Counters are *always on*: the increments are local-int adds on an
instance the evaluating thread owns exclusively, so there is no lock
and no branch on a tracing flag inside the hot loops. The service
layer merges each per-evaluation struct into its long-lived
``stats.engine`` aggregate (under a lock) and, when a trace is active,
attaches the per-evaluation snapshot as span attributes.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Optional, Union

__all__ = ["EvalCounters", "active_counters", "use_counters"]


@dataclass
class EvalCounters:
    """Work done by one evaluation (or aggregated over many).

    Field meanings:

    - ``nfa_states_expanded`` — product states popped from the 0-1 BFS
      queue in ``register_nfa.shortest_pair_lengths`` (the register-NFA
      length search);
    - ``nfa_transitions`` — relaxations pushed onto that queue (zero-
      cost register/check ops and cost-1 edge steps);
    - ``deepening_rounds`` — iterative-deepening rounds: witness-length
      probes on the NFA route, one per (endpoint pair, probed length),
      plus bound-doubling rounds of the abstraction fallback;
    - ``witness_steps`` — edge expansions tried by the per-seed witness
      enumeration (distinct ``(edge, successor)`` moves some run can
      take out of a walk prefix, before the closure at the successor
      prunes);
    - ``witnesses`` — walks that enumeration accepted (some run of the
      register NFA over the walk ends in the final state);
    - ``witnesses_matched`` — witnesses ``shortest`` evaluation handed
      to the span matcher because the pattern needs ``collect``; the
      others got their assignments from the accepting runs' registers;
    - ``join_build_rows`` / ``join_probe_rows`` — rows hashed into /
      probed against join tables (nested-loop joins count both sides);
    - ``seeds_pruned`` — start nodes the planner's candidate analysis
      removed before the per-seed shortest search;
    - ``condition_evals`` — top-level ``WHERE`` condition evaluations;
    - ``conditions_pushed`` — condition atoms the compiler pushed out
      of final CHECK ops into bind/step sites of the register program;
    - ``masks_built`` — per-(key, const) / per-label dense bitmask
      indexes materialised (core builds plus per-snapshot overlay
      patches; cache hits do not count);
    - ``mask_probes`` — single-bit bitmask tests performed by the
      length search in place of full condition/label evaluations;
    - ``dense_fast_lane`` — per-seed length searches whose program
      tracked no register (product states are ``(node, state)``);
    - ``register_files`` — distinct non-empty register files the
      length searches interned, summed over seeds (0 for a
      register-free program);
    - ``queries_proven_empty`` — evaluations the static analyzer
      short-circuited to the empty answer set without touching the
      snapshot (the query is provably empty on every graph);
    - ``conditions_simplified`` — conditions the analyzer rewrote
      before evaluation (constant-folded, deduplicated, or dropped as
      tautological), counted per evaluation;
    - ``dead_branches_pruned`` — provably-empty union branches the
      analyzer removed before evaluation, counted per evaluation.
    """

    nfa_states_expanded: int = 0
    nfa_transitions: int = 0
    deepening_rounds: int = 0
    witness_steps: int = 0
    witnesses: int = 0
    witnesses_matched: int = 0
    join_build_rows: int = 0
    join_probe_rows: int = 0
    seeds_pruned: int = 0
    condition_evals: int = 0
    conditions_pushed: int = 0
    masks_built: int = 0
    mask_probes: int = 0
    dense_fast_lane: int = 0
    register_files: int = 0
    queries_proven_empty: int = 0
    conditions_simplified: int = 0
    dead_branches_pruned: int = 0

    def merge(self, other: "Union[EvalCounters, dict, None]") -> None:
        """Add ``other``'s counts into this struct (thread-safe: used
        by the service/cluster stats aggregates, which are shared)."""
        if other is None:
            return
        if isinstance(other, EvalCounters):
            other = other.as_dict()
        with _MERGE_LOCK:
            for name, value in other.items():
                if value and hasattr(self, name):
                    setattr(self, name, getattr(self, name) + int(value))

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def total(self) -> int:
        return sum(self.as_dict().values())

    def render(self) -> str:
        """One human-readable line, zero fields elided (for explain)."""
        parts = [
            f"{name}={value}"
            for name, value in self.as_dict().items()
            if value
        ]
        return ", ".join(parts) if parts else "no work recorded"


#: Merges target shared aggregates (ServiceStats.engine et al.).
_MERGE_LOCK = threading.Lock()

#: The counters struct the current evaluation writes into (``None``
#: outside an evaluation — increments are skipped).
_ACTIVE: "ContextVar[Optional[EvalCounters]]" = ContextVar(
    "repro_obs_counters", default=None
)


def active_counters() -> Optional[EvalCounters]:
    """The current evaluation's counters, or ``None``."""
    return _ACTIVE.get()


class use_counters:
    """``with use_counters(c):`` — make ``c`` the ambient counters
    struct for the scope (one per evaluate call)."""

    __slots__ = ("_counters", "_token")

    def __init__(self, counters: EvalCounters):
        self._counters = counters
        self._token = None

    def __enter__(self) -> EvalCounters:
        self._token = _ACTIVE.set(self._counters)
        return self._counters

    def __exit__(self, exc_type, exc, tb):
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False
