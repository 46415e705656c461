"""Abstract syntax of GPC (Figure 1 of the paper).

The grammar, verbatim:

.. code-block:: text

    descriptor  d  ::=  x  |  :l  |  x:l
    direction      ::=  ->  |  <-  |  ~
    restrictor  r  ::=  simple | trail | shortest
                        | shortest simple | shortest trail
    pattern     p  ::=  ()  |  (d)                (node pattern)
                     |  ->  |  -[d]->  (etc.)     (edge pattern)
                     |  p + p                     (union)
                     |  p p                       (concatenation)
                     |  p <theta>                 (conditioning)
                     |  p{n..m}                   (repetition)
    query       Q  ::=  r p  |  x = r p           (pattern query)
                     |  Q, Q                      (join)

Every class is an immutable, hashable dataclass; helper constructors
(:func:`node`, :func:`forward`, ...) give a concise construction DSL
used throughout tests and examples. Structural well-formedness (e.g.
``n <= m`` in repetitions) is validated at construction time;
*type*-correctness is the job of :mod:`repro.gpc.typing`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterator,
    Optional,
    Sequence,
    Union as TUnion,
)

from repro.direction import Direction
from repro.errors import GPCError
from repro.gpc.conditions_ast import Condition, condition_variables

__all__ = [
    "Direction",
    "Descriptor",
    "NodePattern",
    "EdgePattern",
    "Union",
    "Concat",
    "Conditioned",
    "Repeat",
    "Pattern",
    "Restrictor",
    "PatternQuery",
    "Join",
    "Query",
    "Expression",
    "node",
    "edge",
    "forward",
    "backward",
    "undirected",
    "concat",
    "union",
    "children",
    "with_children",
    "fold",
    "variables",
    "pattern_size",
    "iter_subpatterns",
    "iter_queries",
    "INFINITY",
]

#: Sentinel for an unbounded repetition upper limit (``m = infinity``).
INFINITY: Optional[int] = None


@dataclass(frozen=True)
class Descriptor:
    """An optional variable and an optional label: ``x``, ``:l``, ``x:l``.

    Both components absent is also legal (the anonymous descriptor used
    by ``()`` and bare arrows).
    """

    variable: Optional[str] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.variable is not None and not self.variable:
            raise GPCError("descriptor variable must be a non-empty string")
        if self.label is not None and not self.label:
            raise GPCError("descriptor label must be a non-empty string")

    @property
    def is_empty(self) -> bool:
        return self.variable is None and self.label is None

    def __str__(self) -> str:
        var = self.variable or ""
        label = f":{self.label}" if self.label else ""
        return f"{var}{label}"


_EMPTY_DESCRIPTOR = Descriptor()


@dataclass(frozen=True)
class NodePattern:
    """``( d )`` — matches a single node."""

    descriptor: Descriptor = _EMPTY_DESCRIPTOR

    @property
    def variable(self) -> Optional[str]:
        return self.descriptor.variable

    @property
    def label(self) -> Optional[str]:
        return self.descriptor.label

    def __str__(self) -> str:
        return f"({self.descriptor})"


@dataclass(frozen=True)
class EdgePattern:
    """``-[d]->``, ``<-[d]-`` or ``~[d]~`` — matches a single edge
    traversal (with its endpoint nodes included in the matched path)."""

    direction: Direction
    descriptor: Descriptor = _EMPTY_DESCRIPTOR

    @property
    def variable(self) -> Optional[str]:
        return self.descriptor.variable

    @property
    def label(self) -> Optional[str]:
        return self.descriptor.label

    def __str__(self) -> str:
        if self.descriptor.is_empty:
            return str(self.direction)
        if self.direction is Direction.FORWARD:
            return f"-[{self.descriptor}]->"
        if self.direction is Direction.BACKWARD:
            return f"<-[{self.descriptor}]-"
        return f"~[{self.descriptor}]~"


@dataclass(frozen=True)
class Union:
    """``p1 + p2`` — disjunction of patterns."""

    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True)
class Concat:
    """``p1 p2`` — concatenation (juxtaposition) of patterns."""

    left: "Pattern"
    right: "Pattern"


@dataclass(frozen=True)
class Conditioned:
    """``p <theta>`` — filter matches of ``p`` by a condition."""

    pattern: "Pattern"
    condition: Condition


@dataclass(frozen=True)
class Repeat:
    """``p{n..m}`` — repetition between ``n`` and ``m`` times.

    ``upper is None`` encodes ``m = infinity``; ``p{0..None}`` is the
    Kleene star.
    """

    pattern: "Pattern"
    lower: int
    upper: Optional[int]

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise GPCError(f"repetition lower bound must be >= 0, got {self.lower}")
        if self.upper is not None and self.upper < self.lower:
            raise GPCError(
                f"repetition bounds must satisfy n <= m, got {self.lower}..{self.upper}"
            )

    @property
    def is_unbounded(self) -> bool:
        return self.upper is None


class PatternExtension:
    """Base class for extension pattern constructs (Section 7).

    The core calculus is fixed by Figure 1; the paper's Section 7
    sketches extensions (label expressions, arithmetic conditions,
    restrictors inside patterns). A subclass says what its
    sub-patterns are and supplies its case of each fact that has one;
    the recursion is :func:`fold`'s, so no core module is touched:

    ==============================  ====================================
    hook                            called by
    ==============================  ====================================
    ``children()``                  :func:`children` — every ``fold``
                                    and :func:`iter_subpatterns`
    ``with_children(children)``     :func:`with_children`, when a tree
                                    map (analyzer rewrite, fingerprint
                                    canonicalisation) changed a child
    ``own_variables()``             :func:`variables`
    ``infer_schema_ext(schemas)``   ``typing.infer_schema``'s step
    ``min_path_length_ext(mins)``   ``minlength.min_path_length``'s step
    ``max_path_length_ext(maxes)``  ``minlength.max_path_length``'s step
    ``provably_empty_ext()``        ``analysis.analyze_query``'s step
    ``evaluate_ext(evaluator, L)``  ``semantics.BoundedEvaluator``
    ``compile_register_ext(b, c)``  ``register_nfa.compile_register_nfa``
    ==============================  ====================================

    The ``*_ext(child_results)`` hooks receive the fold's child results
    in ``children()`` order. Facts without a hook take their
    conservative value on an extension: footprint ``BOTTOM``, endpoints
    unconstrained, a neutral cardinality guess, ``repr`` for concrete
    syntax. ``compile_register_ext`` has a default for a construct with
    one child whose matches it only removes or annotates.
    """

    def children(self) -> tuple["Pattern", ...]:
        """Direct subpatterns: the stored objects, the same on every
        call (``fold`` memoises and ``with_children`` compares on
        identity)."""
        raise NotImplementedError

    def with_children(self, children: tuple["Pattern", ...]) -> "Pattern":
        """This construct over other subpatterns (``children()`` order).
        A construct without subpatterns is never asked."""
        raise NotImplementedError

    def own_variables(self) -> frozenset[str]:
        """Variables introduced by this construct itself."""
        return frozenset()

    def infer_schema_ext(self, child_schemas: Sequence[dict]) -> dict:
        """Combine child schemas (may raise ``GPCTypeError``)."""
        raise NotImplementedError

    def min_path_length_ext(self, child_mins: Sequence[int]) -> int:
        """Minimum match length given the children's minima."""
        raise NotImplementedError

    def max_path_length_ext(
        self, child_maxes: Sequence[Optional[int]]
    ) -> Optional[int]:
        """Maximum match length (``None`` = unbounded)."""
        raise NotImplementedError

    def provably_empty_ext(self) -> bool:
        """Whether the construct is statically unsatisfiable (no
        element on any graph can match). ``True`` must be a proof —
        the analyzer (:mod:`repro.gpc.analysis`) short-circuits
        provably-empty queries to the empty answer set. The default is
        the always-sound ``False``."""
        return False

    def evaluate_ext(self, evaluator, max_length: int):
        """Bounded evaluation; ``evaluator`` is the
        :class:`~repro.gpc.semantics.BoundedEvaluator`."""
        raise NotImplementedError

    def compile_register_ext(
        self, builder, compile_child: Callable[["Pattern"], tuple[int, int]]
    ) -> tuple[int, int]:
        """This construct's ``(start, end)`` states in the register NFA
        ``builder`` grows: an atom through ``builder.node`` /
        ``builder.edge``, a child through ``compile_child``. The default
        compiles the one child in its place and marks the NFA inexact —
        sound for a construct that only removes or annotates its child's
        matches, whose every path the NFA then still accepts."""
        (child,) = self.children()
        builder.approximated.append(type(self).__name__)
        return compile_child(child)


Pattern = TUnion[
    NodePattern, EdgePattern, Union, Concat, Conditioned, Repeat, PatternExtension
]


@dataclass(frozen=True)
class Restrictor:
    """A path restrictor: ``simple``, ``trail``, ``shortest``,
    ``shortest simple`` or ``shortest trail``.

    ``mode`` is ``"simple"``, ``"trail"`` or ``None``; at least one of
    ``shortest``/``mode`` must be present, which guarantees finiteness
    of query answers (Theorem 10).
    """

    shortest: bool = False
    mode: Optional[str] = None

    #: The five legal restrictors, as convenient constants (set after
    #: the class body; ClassVar keeps them out of the dataclass fields).
    SIMPLE: ClassVar["Restrictor"]
    TRAIL: ClassVar["Restrictor"]
    SHORTEST: ClassVar["Restrictor"]
    SHORTEST_SIMPLE: ClassVar["Restrictor"]
    SHORTEST_TRAIL: ClassVar["Restrictor"]

    def __post_init__(self) -> None:
        if self.mode not in (None, "simple", "trail"):
            raise GPCError(f"unknown restrictor mode {self.mode!r}")
        if not self.shortest and self.mode is None:
            raise GPCError(
                "a restrictor needs 'shortest', a mode, or both "
                "(otherwise answers may be infinite)"
            )

    def __str__(self) -> str:
        parts = []
        if self.shortest:
            parts.append("shortest")
        if self.mode:
            parts.append(self.mode)
        return " ".join(parts)


Restrictor.SIMPLE = Restrictor(mode="simple")
Restrictor.TRAIL = Restrictor(mode="trail")
Restrictor.SHORTEST = Restrictor(shortest=True)
Restrictor.SHORTEST_SIMPLE = Restrictor(shortest=True, mode="simple")
Restrictor.SHORTEST_TRAIL = Restrictor(shortest=True, mode="trail")


@dataclass(frozen=True)
class PatternQuery:
    """``r p`` or ``x = r p`` — a restricted, optionally named pattern."""

    restrictor: Restrictor
    pattern: Pattern
    name: Optional[str] = None


@dataclass(frozen=True)
class Join:
    """``Q1, Q2`` — the join of two queries."""

    left: "Query"
    right: "Query"


Query = TUnion[PatternQuery, Join]

#: An *expression* is a pattern or a query (the paper's terminology).
Expression = TUnion[Pattern, Query]


# ---------------------------------------------------------------------------
# Construction DSL
# ---------------------------------------------------------------------------


def node(variable: str | None = None, label: str | None = None) -> NodePattern:
    """Build a node pattern ``(x:l)`` with optional components."""
    return NodePattern(Descriptor(variable, label))


def edge(
    direction: Direction,
    variable: str | None = None,
    label: str | None = None,
) -> EdgePattern:
    """Build an edge pattern with explicit direction."""
    return EdgePattern(direction, Descriptor(variable, label))


def forward(variable: str | None = None, label: str | None = None) -> EdgePattern:
    """``-[x:l]->``"""
    return edge(Direction.FORWARD, variable, label)


def backward(variable: str | None = None, label: str | None = None) -> EdgePattern:
    """``<-[x:l]-``"""
    return edge(Direction.BACKWARD, variable, label)


def undirected(variable: str | None = None, label: str | None = None) -> EdgePattern:
    """``~[x:l]~``"""
    return edge(Direction.UNDIRECTED, variable, label)


def concat(*patterns: Pattern) -> Pattern:
    """Left-associated concatenation of one or more patterns."""
    if not patterns:
        raise GPCError("concat needs at least one pattern")
    result = patterns[0]
    for pattern in patterns[1:]:
        result = Concat(result, pattern)
    return result


def union(*patterns: Pattern) -> Pattern:
    """Left-associated union of one or more patterns."""
    if not patterns:
        raise GPCError("union needs at least one pattern")
    result = patterns[0]
    for pattern in patterns[1:]:
        result = Union(result, pattern)
    return result


# ---------------------------------------------------------------------------
# The one traversal: children, with_children, fold
# ---------------------------------------------------------------------------
#
# Which fields of a constructor hold sub-expressions is written down
# here and nowhere else; every pass over the syntax — typing, lengths,
# footprints, analysis, planning, printing — is a *step function* handed
# to :func:`fold`, or a loop over :func:`iter_subpatterns`.

_BINARY = (Union, Concat, Join)
_UNARY = (Conditioned, Repeat, PatternQuery)

#: How many sub-expressions each core constructor holds, by class: one
#: dictionary lookup per node where ``isinstance`` would ask three
#: questions (every pass over the syntax pays this per node).
_ARITY = {
    **dict.fromkeys((NodePattern, EdgePattern), 0),
    **dict.fromkeys(_UNARY, 1),
    **dict.fromkeys(_BINARY, 2),
}


def children(expression: Expression) -> tuple[Expression, ...]:
    """The direct sub-expressions of ``expression``, left to right."""
    arity = _ARITY.get(expression.__class__)
    if arity == 2:
        return (expression.left, expression.right)
    if arity == 1:
        return (expression.pattern,)
    if arity == 0:
        return ()
    if isinstance(expression, PatternExtension):
        return tuple(expression.children())
    raise TypeError(f"not a GPC expression: {expression!r}")


def with_children(
    expression: Expression, new_children: Sequence[Expression]
) -> Expression:
    """``expression`` over ``new_children`` (the inverse of
    :func:`children`). Returns ``expression`` itself when every child
    is the object it already holds, so "did a rewrite change anything"
    stays an ``is`` test all the way up the tree."""
    old = children(expression)
    if len(new_children) != len(old):
        raise GPCError(
            f"{type(expression).__name__} takes {len(old)} sub-expressions, "
            f"got {len(new_children)}"
        )
    for new, kept in zip(new_children, old):
        if new is not kept:
            break
    else:
        return expression
    if isinstance(expression, _BINARY):
        return type(expression)(*new_children)
    if isinstance(expression, PatternExtension):
        return expression.with_children(tuple(new_children))
    return replace(expression, pattern=new_children[0])


def fold(expression: Expression, step: Callable[[Any, tuple], Any]) -> Any:
    """Structural induction: ``step(node, child_results)`` for every
    node of ``expression``, children before parents and left to right,
    the value for the root returned. ``child_results`` is a tuple in
    :func:`children` order.

    The height of the tree is not bounded by the interpreter's
    recursion limit, and the walk is memoised per call on node
    *identity*: a node reachable along several paths (a programmatic
    AST that shares a subtree) is stepped once. An exception raised by
    ``step`` propagates from the first node, in that order, that raises
    — the node a recursive descent would have failed at.
    """
    return _fold(expression, step, {}, _NATIVE_LEVELS)


#: How many levels :func:`fold` descends by native recursion before it
#: continues on an explicit stack. An interpreter frame costs about
#: half of one kept by hand, and a cold request runs some sixteen folds
#: over 3-10 nodes each: against the hand-rolled recursions this
#: replaced, an all-explicit fold cost ``point_lookup`` 8 % more CPU per
#: request, this one 4 %. Every tree this shallow fits — any text the
#: parser lets in is at most twice as high — and nested folds (a step
#: that asks for another fact) stay far below the recursion limit.
_NATIVE_LEVELS = 48


def _fold(node: Expression, step, done: dict[int, Any], levels: int) -> Any:
    key = id(node)
    if key in done:
        return done[key]
    arity = _ARITY.get(node.__class__)
    if arity == 0:
        result = step(node, ())
    elif not levels:
        result = _fold_deep(node, step, done)
    elif arity == 2:
        left = _fold(node.left, step, done, levels - 1)
        result = step(node, (left, _fold(node.right, step, done, levels - 1)))
    elif arity == 1:
        result = step(node, (_fold(node.pattern, step, done, levels - 1),))
    else:
        kids = children(node)
        result = step(
            node, tuple([_fold(kid, step, done, levels - 1) for kid in kids])
        )
    done[key] = result
    return result


def _fold_deep(expression: Expression, step, done: dict[int, Any]) -> Any:
    """:func:`_fold` without recursion, for what lies below the native
    levels: same order, same memo."""
    # ``todo`` holds what is still to visit, next on top; ``None`` says
    # "every child of the node on top of ``opened`` has been visited",
    # and their results are then the top of ``values``, in order.
    todo: list[Optional[Expression]] = [expression]
    opened: list[tuple[Expression, int]] = []
    values: list[Any] = []
    while todo:
        current = todo.pop()
        if current is None:
            current, count = opened.pop()
            result = step(current, tuple(values[-count:]))
            del values[-count:]
        elif id(current) in done:
            values.append(done[id(current)])
            continue
        elif kids := children(current):
            opened.append((current, len(kids)))
            todo.append(None)
            todo += kids[::-1]
            continue
        else:
            result = step(current, ())
        done[id(current)] = result
        values.append(result)
    return result


def iter_subpatterns(expression: Expression) -> Iterator[Expression]:
    """Yield every sub-expression of ``expression`` (including itself),
    pre-order."""
    stack: list[Expression] = [expression]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def iter_queries(query: Query) -> Iterator[Query]:
    """Yield every join and pattern query of ``query`` (including
    itself), pre-order: :func:`iter_subpatterns` stopping where the
    patterns begin."""
    stack: list[Query] = [query]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, Join):
            stack.extend(reversed(children(current)))


def variables(expression: Expression) -> frozenset[str]:
    """``var(xi)``: all variables occurring in the expression.

    Includes variables bound by descriptors, path names in queries, and
    variables mentioned in conditions.
    """
    out: set[Optional[str]] = set()
    for sub in iter_subpatterns(expression):
        if isinstance(sub, (NodePattern, EdgePattern)):
            out.add(sub.variable)
        elif isinstance(sub, PatternQuery):
            out.add(sub.name)
        elif isinstance(sub, Conditioned):
            out.update(condition_variables(sub.condition))
        elif isinstance(sub, PatternExtension):
            out.update(sub.own_variables())
    out.discard(None)
    return frozenset(out)


def pattern_size(expression: Expression) -> int:
    """``|pi|`` per Appendix C: parse-tree nodes plus the bits needed
    to represent repetition bounds."""
    size = 0
    for sub in iter_subpatterns(expression):
        size += 1
        if isinstance(sub, Repeat):
            size += sub.lower.bit_length() or 1
            if sub.upper is not None:
                size += sub.upper.bit_length() or 1
    return size
