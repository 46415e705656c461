"""Automata substrate.

Non-deterministic finite automata over *graph traversal steps*: the
library of the RPQ / 2RPQ / C2RPQ baseline evaluators of Section 6
(regex → NFA, product construction and BFS reachability) and of the
Theorem 11 translations. The GPC engine does not use it — its one
automaton model is the register NFA of :mod:`repro.gpc.register_nfa`
(``tools/lint_invariants.py``, ``INV009``).
"""

from repro.automata.nfa import NFA, EdgeStep, NFABuilder
from repro.automata.regex import (
    Concat as RegexConcat,
    Epsilon,
    Option,
    Plus,
    Regex,
    Star,
    Symbol,
    Union as RegexUnion,
    parse_regex,
    regex_to_nfa,
)
from repro.automata.product import (
    accepted_pairs,
    min_accepting_lengths,
    pairs_and_distances,
)

__all__ = [
    "NFA",
    "NFABuilder",
    "EdgeStep",
    "Regex",
    "Epsilon",
    "Symbol",
    "RegexConcat",
    "RegexUnion",
    "Star",
    "Plus",
    "Option",
    "parse_regex",
    "regex_to_nfa",
    "accepted_pairs",
    "min_accepting_lengths",
    "pairs_and_distances",
]
