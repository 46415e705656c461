"""Register automata for ``shortest`` and the ``trail`` / ``simple`` walks.

Every pattern compiles into one register NFA:

- ``bind(x)`` transitions bind (or check) a register against the
  current node;
- node tests and edge steps carry a *label test* — a label, or a test
  on the element's whole label set (a Section 7 label expression);
- edge steps optionally bind/check an edge register;
- ``check(theta)`` transitions evaluate property conditions against
  the bound registers (well-typedness guarantees the variables are
  bound by then);
- ``reset(V)`` transitions clear a repetition body's registers between
  iterations (group variables impose no cross-iteration constraints)
  and, with the ``open``/``close`` transitions that bracket the
  repetition, mark where each iteration begins and ends — what
  ``collect`` needs to build the body variables' lists.

An extension construct compiles through its
:meth:`~repro.gpc.ast.PatternExtension.compile_register_ext` hook. A
wrapper that only removes or annotates its child's matches compiles as
its child and marks the NFA inexact (:attr:`RegisterNFA.exact`); the
engine then takes from it only the pairs its deepening route waits for.

The NFA is lowered once per evaluation onto the snapshot it runs on
(:func:`lower_program`, one :class:`ShortestProgram`), keeping at run
time only the registers that can constrain a run. A 0-1 BFS over
``(registers, node, state)`` (:func:`shortest_pair_lengths`), queueing
no state that cannot reach an end candidate (:func:`coreachable`), then
yields the *exact* minimum match length per endpoint pair, in time
polynomial in the product size (registers stay few in practice —
``EvalCounters.register_files`` counts them). Witness paths of those
exact lengths are enumerated by one DFS per seed that runs the same
program (:func:`shortest_witnesses`), so each witness comes with the
register files of its accepting runs — lists included, read off the
iteration boundaries the run passed. Those are the assignments under
every collect mode: outside ``GROUPING`` a body that may match an
edgeless path compiles so that each iteration consumes an edge, and
under it the run merges consecutive edgeless iterations as Figure 3
regroups them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Iterable, Optional, Union

from repro.direction import Direction
from repro.errors import (
    DeadlineExceededError,
    EvaluationError,
    EvaluationLimitError,
    UnknownIdError,
)
from repro.graph.columns import and_masks
from repro.graph.ids import NodeId
from repro.graph.paths import Path
from repro.graph.snapshot import GraphSnapshot
from repro.gpc import ast
from repro.gpc.assignments import Assignment
from repro.gpc.collect import CollectMode
from repro.gpc.conditions import satisfies
from repro.gpc.conditions_ast import (
    And,
    Condition,
    PropertyEqualsConst,
    condition_variables,
    resolve,
)
from repro.gpc.minlength import may_match_edgeless
from repro.gpc.planner import split_pushdown
from repro.gpc.values import GroupValue, Nothing
from repro.obs.counters import active_counters
from repro.obs.deadline import check_deadline

__all__ = [
    "RegisterNFA",
    "compile_register_nfa",
    "ShortestProgram",
    "lower_program",
    "coreachable",
    "shortest_pair_lengths",
    "shortest_witnesses",
    "witness_search",
    "compile_dense_program",
    "dense_shortest_pair_lengths",
    "compile_flat_program",
    "flat_shortest_pair_lengths",
    "enumerate_shortest_witnesses",
    "enumerate_exact_length_walks",
]


#: What a node test or an edge step asks of an element's labels:
#: ``None`` nothing, a string that label, anything else is a hashable
#: predicate on the label set (a label expression).
LabelTest = Union[None, str, Callable[[frozenset], bool]]


def _admits(test: LabelTest, labels: frozenset) -> bool:
    """Whether an element with ``labels`` passes ``test``."""
    if test is None:
        return True
    return test in labels if isinstance(test, str) else test(labels)


@dataclass(frozen=True)
class _Eps:
    pass


@dataclass(frozen=True)
class _NodeTest:
    label: LabelTest


#: Pushed ``x.key = const`` atoms attached to a bind/step site:
#: sorted-hashable frozenset of ``(key, const)`` pairs. Every pair must
#: hold on the element the site touches (defined *and* equal, the same
#: truth :func:`repro.gpc.conditions.satisfies` computes), or the
#: transition is blocked.
PushedProps = frozenset
_NO_PROPS: PushedProps = frozenset()


@dataclass(frozen=True)
class _Bind:
    variable: str
    props: PushedProps = frozenset()


@dataclass(frozen=True)
class _Check:
    condition: Condition


@dataclass(frozen=True)
class _Reset:
    """The end of one iteration of the repetition that owns group
    register ``group``: forget the body's ``variables``."""

    variables: frozenset[str]
    group: str


@dataclass(frozen=True)
class _Open:
    """Entering the repetition that owns group register ``group``."""

    group: str


@dataclass(frozen=True)
class _Close:
    """Leaving it: each of the body's ``variables`` takes its list."""

    group: str
    variables: frozenset[str]


@dataclass(frozen=True)
class _EdgeStep:
    direction: Direction
    label: LabelTest
    variable: Optional[str]
    props: PushedProps = frozenset()


@dataclass
class RegisterNFA:
    num_states: int
    initial: int
    final: int
    #: zero-weight transitions per state: (op, target)
    zero: tuple[tuple[tuple[Any, int], ...], ...]
    #: edge-step (weight 1) transitions per state
    steps: tuple[tuple[tuple[_EdgeStep, int], ...], ...]
    #: condition atoms the compiler attached to bind/step sites instead
    #: of leaving them in a final CHECK (0 without pushdown)
    pushed_atoms: int = 0
    #: per bound variable, how many bind and step sites bind it — the
    #: unrolled copies of a repetition body counted once, each copy
    #: being cut off from the next by the body's reset
    sites: dict[str, int] = field(default_factory=dict)
    #: the extension constructs compiled as their child alone
    approximated: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        """Whether a run accepts exactly the pattern's paths, with its
        registers. Otherwise the NFA over-approximates: it connects a
        superset of the pattern's endpoint pairs, at lengths no greater
        than their minima."""
        return not self.approximated

    @cached_property
    def backward_distances(self) -> tuple[int, ...]:
        """Per state, the fewest edge steps to the final state,
        register-free: the lower bound the witness enumeration prunes
        with (-1 = unreachable). Computed on first use, once per NFA."""
        arcs: list[list[tuple[int, int]]] = [[] for _ in range(self.num_states)]
        for q in range(self.num_states):
            for _op, target in self.zero[q]:
                arcs[target].append((q, 0))
            for _step, target in self.steps[q]:
                arcs[target].append((q, 1))
        dist = {self.final: 0}
        queue: deque[int] = deque([self.final])
        while queue:  # 0-1 BFS over the reversed arcs
            q = queue.popleft()
            for p, weight in arcs[q]:
                if dist.get(p, self.num_states) > dist[q] + weight:
                    dist[p] = dist[q] + weight
                    (queue.append if weight else queue.appendleft)(p)
        return tuple(dist.get(q, -1) for q in range(self.num_states))

    @cached_property
    def groups(self) -> tuple[str, ...]:
        """The group registers, one per nesting depth of repetitions
        whose body binds variables (sibling repetitions are never open
        at once, so they share one). A program that tracks them beside
        every variable of :attr:`sites` reads group values off its runs."""
        return tuple(
            sorted(
                {
                    op.group
                    for transitions in self.zero
                    for op, _target in transitions
                    if type(op) is _Open
                }
            )
        )

    @cached_property
    def constraining(self) -> dict[str, Union[Condition, int]]:
        """The variables whose registers can constrain a run, each with
        why: the residual check that reads it, else its number of sites
        when that is more than one. Every other variable has a single
        site that a run reaches with the register unbound (re-entering
        a repetition body, or entering its next unrolled copy, passes
        its reset first), so its bind never fails and nothing ever
        reads it: the length search need not carry it."""
        out: dict[str, Union[Condition, int]] = {}
        for transitions in self.zero:
            for op, _target in transitions:
                if type(op) is _Check:
                    for variable in sorted(condition_variables(op.condition)):
                        out.setdefault(variable, op.condition)
        for variable, count in self.sites.items():
            if count > 1:
                out.setdefault(variable, count)
        return out


#: Compile-time environment: variable -> pushed (key, const) atoms the
#: enclosing Conditioned wrappers want tested at that variable's
#: bind/step sites.
_PushEnv = dict


@dataclass
class _Builder:
    """What :func:`compile_register_nfa` grows, and what an extension's
    :meth:`~repro.gpc.ast.PatternExtension.compile_register_ext` hook
    builds with: :meth:`node` and :meth:`edge` compile an atom, each
    returning its ``(start, end)`` states."""

    state_limit: int = 100_000
    pushdown: bool = False
    #: compile a body that may match an edgeless path so that each of
    #: its iterations consumes an edge (``collect`` outside GROUPING)
    layered: bool = False
    zero: list[list[tuple[object, int]]] = field(default_factory=list)
    steps: list[list[tuple[_EdgeStep, int]]] = field(default_factory=list)
    #: per-variable count of bind/step sites that *attached* pushed
    #: atoms; a Conditioned elides an atom from its residual check only
    #: when compiling its subtree grew this count (i.e. some in-subtree
    #: site carries the test).
    attached: dict[str, int] = field(default_factory=dict)
    pushed_atoms: int = 0
    #: :attr:`RegisterNFA.sites`; ``counting`` is off inside the second
    #: and later unrolled copies of a repetition body.
    sites: dict[str, int] = field(default_factory=dict)
    counting: bool = True
    #: how many variable-binding repetitions enclose the current node
    depth: int = 0
    #: :attr:`RegisterNFA.approximated`, one entry per compiled copy
    approximated: list[str] = field(default_factory=list)
    #: the atoms the enclosing Conditioned wrappers push to each
    #: variable's sites (empty inside a repetition body)
    pushed: _PushEnv = field(default_factory=dict)

    def new_state(self) -> int:
        if len(self.zero) >= self.state_limit:
            raise EvaluationLimitError(
                f"register automaton exceeded {self.state_limit} states; "
                f"repetition bounds may be too large"
            )
        self.zero.append([])
        self.steps.append([])
        return len(self.zero) - 1

    def add_zero(self, source: int, op: object, target: int) -> None:
        self.zero[source].append((op, target))

    def _site(self, variable: Optional[str]) -> PushedProps:
        """Note a site of ``variable``: the atoms it carries."""
        if variable is None:
            return _NO_PROPS
        self.sites[variable] = self.sites.get(variable, 0) + self.counting
        props = self.pushed.get(variable)
        if not props:
            return _NO_PROPS
        self.attached[variable] = self.attached.get(variable, 0) + 1
        return props

    def node(self, variable: Optional[str], test: LabelTest) -> tuple[int, int]:
        """``(x:test)``: a node test, then a bind of ``variable``
        carrying the atoms pushed to it."""
        start = current = self.new_state()
        end = self.new_state()
        if test is not None:
            current = self.new_state()
            self.add_zero(start, _NodeTest(test), current)
        if variable is None:
            self.add_zero(current, _Eps(), end)
        else:
            self.add_zero(current, _Bind(variable, self._site(variable)), end)
        return start, end

    def edge(
        self, direction: Direction, test: LabelTest, variable: Optional[str]
    ) -> tuple[int, int]:
        """``-[x:test]->`` in ``direction``: one step."""
        start, end = self.new_state(), self.new_state()
        props = self._site(variable)
        self.steps[start].append((_EdgeStep(direction, test, variable, props), end))
        return start, end


def compile_register_nfa(
    pattern: ast.Pattern,
    state_limit: int = 100_000,
    pushdown: bool = False,
    collect_mode: CollectMode = CollectMode.GROUPING,
) -> RegisterNFA:
    """Compile a pattern into a register NFA whose runs, under
    ``collect_mode``, accept exactly its matches.

    With ``pushdown=True``, single-variable ``x.key = const`` atoms on
    the positive ``And`` spine of each condition are attached to the
    bind/step sites of ``x`` inside the Conditioned subtree (failing
    candidates die at bind time) and elided from the residual CHECK.
    Elision only happens when compilation proves an in-subtree site
    took the atom; atoms whose variable binds only inside a repetition
    body fall back to the residual check, so the rewrite is
    answer-preserving by construction.
    """
    builder = _Builder(state_limit, pushdown, collect_mode is not CollectMode.GROUPING)
    start, end = _compile(pattern, builder)
    return RegisterNFA(
        num_states=len(builder.zero),
        initial=start,
        final=end,
        zero=tuple(tuple(z) for z in builder.zero),
        steps=tuple(tuple(s) for s in builder.steps),
        pushed_atoms=builder.pushed_atoms,
        sites=builder.sites,
        approximated=tuple(builder.approximated),
    )


def _compile(pattern: ast.Pattern, builder: _Builder) -> tuple[int, int]:
    if isinstance(pattern, ast.NodePattern):
        return builder.node(pattern.variable, pattern.label)
    if isinstance(pattern, ast.EdgePattern):
        return builder.edge(pattern.direction, pattern.label, pattern.variable)
    if isinstance(pattern, ast.Concat):
        left_start, left_end = _compile(pattern.left, builder)
        right_start, right_end = _compile(pattern.right, builder)
        builder.add_zero(left_end, _Eps(), right_start)
        return left_start, right_end
    if isinstance(pattern, ast.Union):
        start = builder.new_state()
        end = builder.new_state()
        for branch in (pattern.left, pattern.right):
            b_start, b_end = _compile(branch, builder)
            builder.add_zero(start, _Eps(), b_start)
            builder.add_zero(b_end, _Eps(), end)
        return start, end
    if isinstance(pattern, ast.Conditioned):
        return _compile_conditioned(pattern, builder)
    if isinstance(pattern, ast.Repeat):
        return _compile_repeat(pattern, builder)
    if isinstance(pattern, ast.PatternExtension):
        return pattern.compile_register_ext(
            builder, lambda child: _compile(child, builder)
        )
    raise TypeError(f"not a pattern: {pattern!r}")


def _compile_conditioned(
    pattern: ast.Conditioned, builder: _Builder
) -> tuple[int, int]:
    atoms, residue = (
        split_pushdown(pattern.condition) if builder.pushdown else ({}, None)
    )
    if not atoms:
        inner_start, inner_end = _compile(pattern.pattern, builder)
        end = builder.new_state()
        builder.add_zero(inner_end, _Check(pattern.condition), end)
        return inner_start, end
    pushed = builder.pushed
    builder.pushed = dict(pushed)
    for variable, var_atoms in atoms.items():
        builder.pushed[variable] = pushed.get(variable, frozenset()) | var_atoms
    before = {v: builder.attached.get(v, 0) for v in atoms}
    inner_start, inner_end = _compile(pattern.pattern, builder)
    builder.pushed = pushed
    for variable in sorted(atoms):
        var_atoms = atoms[variable]
        if builder.attached.get(variable, 0) > before[variable]:
            # Some bind/step site of the variable inside the subtree
            # carries the test (and every accepting run traverses one:
            # the variable is in the inner schema, union branches share
            # schemas, and repetition sites never attach), so
            # the residual check may drop the atom.
            builder.pushed_atoms += len(var_atoms)
        else:
            for key, const in sorted(var_atoms, key=repr):
                atom = PropertyEqualsConst(variable, key, const)
                residue = atom if residue is None else And(residue, atom)
    end = builder.new_state()
    if residue is None:
        builder.add_zero(inner_end, _Eps(), end)
    else:
        builder.add_zero(inner_end, _Check(residue), end)
    return inner_start, end


def _compile_repeat(pattern: ast.Repeat, builder: _Builder) -> tuple[int, int]:
    """``pi{n,m}``. A body that binds variables is bracketed by the
    boundary ops ``collect`` needs — :class:`_Open`, the
    :class:`_Reset` after each iteration, :class:`_Close`; a body that
    binds nothing gets no op at all."""
    body_vars = frozenset(ast.variables(pattern.pattern))
    if not body_vars:
        return _compile_copies(pattern, builder, _Eps())
    for variable in body_vars:
        builder.sites.setdefault(variable, 0)  # ``{0,0}`` compiles no copy
    group = f"#{builder.depth}"
    builder.depth += 1
    first, last = _compile_copies(pattern, builder, _Reset(body_vars, group))
    builder.depth -= 1
    start, end = builder.new_state(), builder.new_state()
    builder.add_zero(start, _Open(group), first)
    builder.add_zero(last, _Close(group, body_vars), end)
    return start, end


def _compile_copies(
    pattern: ast.Repeat, builder: _Builder, after_body: object
) -> tuple[int, int]:
    """``n`` copies of the body, then ``m - n`` optional ones or a
    loop, ``after_body`` closing each. Only the first copy's sites
    count: a run enters every later one through ``after_body``, the
    body's registers unbound.

    A ``layered`` builder compiles a body that may match an edgeless
    path as two layers of its states, before and after the first edge
    step: zero-weight ops stay in their layer, every step lands in the
    second, and only the second layer's end leaves the iteration."""
    counting, pushed = builder.counting, builder.pushed
    builder.pushed = {}
    layered = builder.layered and may_match_edgeless(pattern.pattern)

    def body_copy(source: int) -> int:
        """One body iteration followed by a register reset.

        The body compiles with an empty push environment: an atom from
        an *enclosing* Conditioned must hold of the single value its
        variable takes across the whole match, whereas a site inside
        the body binds afresh every iteration — attaching there would
        change which runs survive.
        """
        first = len(builder.zero)
        b_start, b_end = _compile(pattern.pattern, builder)
        builder.counting = False
        if layered:
            shift = len(builder.zero) - first
            zero, steps = builder.zero, builder.steps
            for q in range(first, first + shift):
                builder.new_state()  # q + shift
                zero[q + shift] = [(op, target + shift) for op, target in zero[q]]
                steps[q] = [(step, target + shift) for step, target in steps[q]]
                steps[q + shift] = list(steps[q])
            b_end += shift
        builder.add_zero(source, _Eps(), b_start)
        after = builder.new_state()
        builder.add_zero(b_end, after_body, after)
        return after

    start = builder.new_state()
    current = start
    for _ in range(pattern.lower):
        current = body_copy(current)
    end = builder.new_state()
    if pattern.upper is None:
        loop_exit = body_copy(current)
        builder.add_zero(loop_exit, _Eps(), current)
        builder.add_zero(current, _Eps(), end)
    else:
        builder.add_zero(current, _Eps(), end)
        for _ in range(pattern.upper - pattern.lower):
            current = body_copy(current)
            builder.add_zero(current, _Eps(), end)
    builder.counting, builder.pushed = counting, pushed
    return start, end


# ---------------------------------------------------------------------------
# The lowered program
# ---------------------------------------------------------------------------
#
# Node and edge identity is a dense int, a label test or pushed atom
# one bit of a bitmask over dense ids, neighbour expansion a slice of a
# label-filtered CSR row. What a run *remembers* is data too: a bind of
# a variable that cannot constrain a run (:attr:`RegisterNFA.constraining`)
# fires on an unbound register and its reset clears nothing a run looks
# at, so those ops — with the epsilons, node tests and the iteration
# boundaries nobody reads — fold at lowering time into per-state masked
# closures, and only binds, checks, resets and boundary ops of
# *tracked* registers remain as run-time zero-weight arcs. With nothing
# tracked the product is ``(node, state)`` and the search a plain BFS;
# with registers it is ``(file, node, state)`` over register files
# interned per search.
#
# Derived snapshots run in the same loops: a node that is overlay-only,
# shadowed or has a patched adjacency row reads the same tables through
# the view accessors (:meth:`ShortestProgram.at`). The key translation
# is deterministic per snapshot — an element is keyed always by the
# same int, or (an overlay-only edge) always by its id — so register
# equality and state dedup behave exactly as on the real ids.

Registers = tuple[tuple[str, object], ...]  # sorted (variable, value) pairs

#: Kinds of lowered zero-weight op. ``_ARC_FREE`` touches no register
#: (epsilon, node test, and after folding every op on untracked ones —
#: the boundary ops of an untracked group register included).
_ARC_FREE = 0
_ARC_BIND = 1
_ARC_CHECK = 2
_ARC_RESET = 3
_ARC_OPEN = 4
_ARC_CLOSE = 5

_CSR_KIND = {
    Direction.FORWARD: "out",
    Direction.BACKWARD: "in",
    Direction.UNDIRECTED: "und",
}
#: The adjacency that walks a step over each one backwards.
_REVERSED_KIND = {"out": "in", "in": "out", "und": "und"}

#: Closure pairs per state beyond which a state stops folding — the
#: backstop against 2^k mask lattices (a chain of k node-test unions).
_CLOSURE_LIMIT = 64


@dataclass(frozen=True, eq=False)
class ShortestProgram:
    """A register NFA lowered onto one snapshot for one set of tracked
    registers. Build with :func:`lower_program`; valid only for that
    snapshot.

    ``ops`` and ``rows`` are the lowering proper, shared by every
    :meth:`retracked` copy. ``ops`` holds per state
    ``(kind, operand, mask, label, props, target)``: ``kind`` an
    ``_ARC_*`` code, ``operand`` the variable (bind), condition (check)
    or variable set (reset), ``mask`` the dense-id bitmask of the op's
    node test or pushed atoms (``None`` = unconditional) and
    ``label``/``props`` the same test for nodes that have no valid bit.
    ``rows`` holds per state ``(off, edge, other, prop_mask, slot,
    target, step)``: the CSR triple of the arc's direction and label
    (:meth:`SnapshotColumns.filtered_csr`, so a labelled traversal
    walks only matching edges), the pushed-atom mask probed per
    surviving edge, ``None``, and the :class:`_EdgeStep` itself.

    The other tables depend on ``tracked``, the sorted registers a run
    carries (slot = position): variables, and — for a witness pass that
    reads lists off its runs — the group registers of
    :attr:`RegisterNFA.groups`. ``arcs`` holds per state the run-time
    zero-weight arcs, shaped like ``ops`` with registers replaced by
    slots: binds, checks and resets of tracked registers, the boundary
    ops of tracked group registers, plus the free ops of any state
    whose closure would exceed :data:`_CLOSURE_LIMIT` (such a state's
    closure is itself alone). Boundary arcs note the run's depth in the
    register file; an edgeless iteration after an edgeless one merges
    into its entry (:func:`_fire`), so a zero-weight cycle through them
    repeats its register file and closes. ``free`` holds what was
    folded, ``(mask, label, props, target)`` per state, and ``closure``
    its fixed point: per state a run can stand in (others hold
    ``None``) the pairs ``(mask, r)``, ``live`` state ``r`` being
    reachable through folded ops whose tests AND-combine to ``mask``,
    unconditional pairs first. A state is
    ``live`` when it can do something — it has a step or a run-time
    arc, or is final; the rest are passed through. ``steps`` is
    ``rows`` with the ``slot`` of each tracked edge variable filled in.
    """

    snapshot: GraphSnapshot
    nfa: RegisterNFA
    ops: tuple
    rows: tuple
    #: Nodes that exist only in the overlay (added, or re-added over a
    #: shadowed core id) are keyed past the dense ids, by position.
    overlay_nodes: tuple
    overlay_keys: dict
    #: Node keys are ``< span``.
    span: int
    tracked: tuple[str, ...]
    closure: tuple
    arcs: tuple
    free: tuple
    live: tuple
    steps: tuple
    #: Memo of :meth:`at`.
    slow: dict = field(default_factory=dict)
    #: What the NFA's :class:`~repro.gpc.conditions_ast.Param` constants
    #: are bound to: the masks are the bound atoms', checks read them.
    values: tuple = ()

    def retracked(self, variables: Iterable[str]) -> "ShortestProgram":
        """This program tracking ``variables`` instead: the lowering is
        shared, only the tracked-dependent tables are folded again."""
        tracked = tuple(sorted(variables))
        if tracked == self.tracked:
            return self
        return replace(
            self, slow={}, **_fold(self.nfa, self.ops, self.rows, tracked)
        )

    def node_key(self, node: NodeId) -> Optional[int]:
        """The int the loops key ``node`` by, ``None`` when it is not a
        current node of the snapshot."""
        key = self.snapshot.dense_start_key(node)
        return key if type(key) is int else self.overlay_keys.get(node)

    def start_key(self, start: NodeId) -> int:
        key = self.node_key(start)
        if key is None:
            raise UnknownIdError(f"unknown node {start!r}")
        return key

    def element(self, key: Any) -> Any:
        """The real id behind a node or edge key."""
        if type(key) is not int:
            return key  # an overlay-only edge is keyed by its id
        elements = self.snapshot._core.elements
        if key < len(elements):
            return elements[key]
        return self.overlay_nodes[key - len(elements)]

    def group(self, triples: tuple, walk: tuple, element: Callable[[Any], Any]) -> GroupValue:
        """The list a register holds as ``(begin, end, key)`` triples
        (node positions), as offsets over the walk's elements ``walk``:
        one entry per iteration, a variable the iteration took no branch
        with being ``Nothing`` there. ``element`` reads a key's element
        (:meth:`readers`)."""
        return GroupValue.over(
            walk,
            tuple([(2 * begin, 2 * end + 1) for begin, end, _ in triples]),
            tuple([
                Nothing
                if key is None
                else self.group(key, walk, element)
                if type(key) is tuple
                else element(key)
                for _, _, key in triples
            ]),
        )

    def registers(
        self, file: tuple, element: Callable[[Any], Any], walk: Optional[Path] = None
    ) -> Registers:
        """A register file as sorted ``(variable, value)`` pairs, each
        key read by ``element``. A register holding a list is built over
        ``walk``; without a walk it is left out, as is an open group
        register — both are tuples, which no element key is, and no
        condition can read either."""
        pairs = []
        for variable, key in zip(self.tracked, file):
            if type(key) is tuple:
                if walk is not None:
                    pairs.append((variable, self.group(key, walk.elements, element)))
            elif key is not None:
                pairs.append((variable, element(key)))
        return tuple(pairs)

    def readers(self) -> tuple[Callable[[int], tuple], Callable[[Any], Any]]:
        """:meth:`at` and :meth:`element` for a hot loop: plain reads when
        nothing is overlaid (every node clean, every key a core element)."""
        if self.snapshot._dirty or self.overlay_nodes:
            return self.at, self.element
        tables = (self.closure, self.arcs, self.steps)
        return lambda node: tables, self.snapshot._core.elements.__getitem__

    def at(self, node: int) -> tuple:
        """``(closure, arcs, steps)`` as they read at ``node``. A clean
        core node reads the tables themselves. One that has no valid
        mask bit or CSR row (overlay-only, shadowed or dirty) gets them
        with every test put to the accessors — an op that fails is
        gone, one that passes is unconditional — and every row read
        through them, as key tuples under offsets ``{node: 0, node + 1:
        len}``; memoised per node."""
        snapshot = self.snapshot
        if node < snapshot._core.n_nodes and node not in snapshot._dirty:
            return self.closure, self.arcs, self.steps
        found = self.slow.get(node)
        if found is None:
            real = self.element(node)
            dense = snapshot._core.dense

            def passes(
                mask: Optional[bytes], label: Optional[str], props: PushedProps
            ) -> bool:
                return mask is None or _holds(snapshot, real, label, props, self.values)

            closure: list[Optional[tuple]] = []
            for state, pairs in enumerate(self.closure):
                reached = {state}
                stack = [state] if pairs is not None else []
                while stack:
                    for mask, label, props, target in self.free[stack.pop()]:
                        if target not in reached and passes(mask, label, props):
                            reached.add(target)
                            stack.append(target)
                closure.append(
                    pairs and tuple((None, r) for r in reached if self.live[r])
                )
            arcs = tuple(
                tuple(
                    arc[:2] + (None,) + arc[3:]
                    for arc in state_arcs
                    if passes(*arc[2:5])
                )
                for state_arcs in self.arcs
            )
            adjacency: dict[Direction, tuple[Any, Any]] = {
                Direction.FORWARD: (snapshot.out_edges, snapshot.target),
                Direction.BACKWARD: (snapshot.in_edges, snapshot.source),
                Direction.UNDIRECTED: (
                    snapshot.undirected_edges_at,
                    lambda edge: snapshot.other_endpoint(edge, real),
                ),
            }
            steps: list[tuple] = []
            for state_steps in self.steps:
                row: list[tuple] = []
                for _off, _edge, _other, _mask, slot, target, step in state_steps:
                    edges_at, other = adjacency[step.direction]
                    edges = [
                        edge
                        for edge in edges_at(real)
                        if _holds(snapshot, edge, step.label, step.props, self.values)
                    ]
                    row.append(
                        (
                            {node: 0, node + 1: len(edges)},
                            tuple(dense.get(edge, edge) for edge in edges),
                            tuple(self.node_key(other(e)) for e in edges),
                            None,
                            slot,
                            target,
                            step,
                        )
                    )
                steps.append(tuple(row))
            found = self.slow[node] = (tuple(closure), arcs, tuple(steps))
        return found


def _holds(
    snapshot: GraphSnapshot, element: Any, label: LabelTest, props: PushedProps, values: tuple
) -> bool:
    """Whether ``element`` passes the label test ``label`` and every
    pushed ``key = const`` atom holds on it (defined and equal — the
    truth :func:`repro.gpc.conditions.satisfies` computes), through the
    view accessors."""
    if label is not None and not _admits(label, snapshot.labels(element)):
        return False
    for key, const in props:
        value = snapshot.get_property(element, key)
        if value is None or value != resolve(const, values):
            return False
    return True


def _pushed_prop_mask(
    snapshot: GraphSnapshot, props: PushedProps, values: tuple
) -> Optional[bytes]:
    """AND-combine the snapshot's per-atom bitmasks (``None`` when the
    site has no pushed atoms)."""
    mask: Optional[bytes] = None
    for key, const in sorted(props, key=repr):
        mask = and_masks(mask, snapshot.property_mask(key, resolve(const, values)))
    return mask


def _label_test_mask(snapshot: GraphSnapshot, test: LabelTest, memo: dict) -> Optional[bytes]:
    """The dense-id bitmask of the core elements that pass ``test``
    (``None`` when every element does): a label's own mask, or the test
    evaluated once per interned label set and spread over
    ``labelset_of`` in one pass, memoised in ``memo`` per test. Valid,
    as a label's mask is, for every element whose labels the core
    holds."""
    if test is None:
        return None
    if isinstance(test, str):
        return snapshot.label_mask(test)
    mask = memo.get(test)
    if mask is None:
        core = snapshot._core
        admitted = [test(labels) for labels in core.labelsets]
        buf = bytearray((len(core.elements) + 7) >> 3)
        for d, index in enumerate(core.labelset_of):
            if admitted[index]:
                buf[d >> 3] |= 1 << (d & 7)
        mask = memo[test] = bytes(buf)
    return mask


def _labelled_csr(core: Any, kind: str, label: LabelTest) -> tuple:
    """The core's CSR triple of adjacency ``kind`` over the edges that
    carry ``label``; every edge for any other test, whose mask the step
    probes per edge instead."""
    if not isinstance(label, str):
        return core.csr(kind)
    return core.filtered_csr(kind, core.label_index.get(label, -1))


def lower_program(
    nfa: RegisterNFA, view: Any, tracked: Optional[Iterable[str]] = None, values: tuple = ()
) -> ShortestProgram:
    """Lower ``nfa`` onto the snapshot of ``view`` (a snapshot is its
    own), tracking the registers of ``tracked`` (default: those that
    constrain a run, so the program serves the length search) and
    binding its parameter slots to ``values``. Lower
    once per evaluation and share the program across seeds. A label no
    core element carries may still live in the overlay, so its arcs
    stay: clean nodes read an all-zero mask or an empty row."""
    snapshot = view.snapshot()
    core = snapshot._core
    masks: dict = {}
    arc: tuple
    ops: list[tuple] = []
    for transitions in nfa.zero:
        row: list[tuple] = []
        for op, target in transitions:
            kind = type(op)
            if kind is _Eps:
                arc = (_ARC_FREE, None, None, None, _NO_PROPS)
            elif kind is _NodeTest:
                label_mask = _label_test_mask(snapshot, op.label, masks)
                arc = (_ARC_FREE, None, label_mask, op.label, _NO_PROPS)
            elif kind is _Bind:
                prop_mask = _pushed_prop_mask(snapshot, op.props, values)
                arc = (_ARC_BIND, op.variable, prop_mask, None, op.props)
            elif kind is _Check:
                arc = (_ARC_CHECK, op.condition, None, None, _NO_PROPS)
            elif kind is _Reset:
                arc = (_ARC_RESET, op, None, None, _NO_PROPS)
            elif kind is _Open:
                arc = (_ARC_OPEN, op.group, None, None, _NO_PROPS)
            elif kind is _Close:
                arc = (_ARC_CLOSE, op, None, None, _NO_PROPS)
            else:
                raise TypeError(f"unknown op {op!r}")
            row.append(arc + (target,))
        ops.append(tuple(row))
    rows: list[tuple] = []
    for steps in nfa.steps:
        row = []
        for step, target in steps:
            triple = _labelled_csr(core, _CSR_KIND[step.direction], step.label)
            prop_mask = _pushed_prop_mask(snapshot, step.props, values)
            if not isinstance(step.label, str):  # else filtered_csr tested it
                prop_mask = and_masks(prop_mask, _label_test_mask(snapshot, step.label, masks))
            row.append(triple + (prop_mask, None, target, step))
        rows.append(tuple(row))
    lowered = (tuple(ops), tuple(rows))
    overlay_nodes = tuple(snapshot._ovl_node_labels)
    first = len(core.elements)
    if tracked is None:
        tracked = nfa.constraining
    return ShortestProgram(
        snapshot,
        nfa,
        *lowered,
        overlay_nodes=overlay_nodes,
        overlay_keys={
            node: first + i for i, node in enumerate(overlay_nodes)
        },
        span=first + len(overlay_nodes),
        values=values,
        **_fold(nfa, *lowered, tuple(sorted(tracked))),
    )


def _fold(
    nfa: RegisterNFA, ops: tuple, rows: tuple, tracked: tuple[str, ...]
) -> dict[str, Any]:
    """The ``tracked``-dependent tables of a :class:`ShortestProgram`
    (as its constructor's keywords) from the lowered ``ops``/``rows``."""
    slots = {variable: slot for slot, variable in enumerate(tracked)}
    free: list[tuple] = []
    arcs: list[tuple] = []
    for row in ops:
        folded: list[tuple] = []
        kept: list[tuple] = []
        for arc in row:
            kind, operand, mask, label, props, target = arc
            if kind == _ARC_BIND or kind == _ARC_OPEN:
                if operand in slots:
                    kept.append((kind, slots[operand]) + arc[2:])
                    continue
            elif kind == _ARC_CHECK:
                kept.append(arc)
                continue
            elif kind == _ARC_RESET or kind == _ARC_CLOSE:
                body = tuple(
                    slots[v] for v in sorted(operand.variables) if v in slots
                )
                group = slots.get(operand.group)
                if group is not None or (body and kind == _ARC_RESET):
                    kept.append((kind, (body, group)) + arc[2:])
                    continue
            folded.append((mask, label, props, target))
        free.append(tuple(folded))
        arcs.append(tuple(kept))
    # A run only ever *stands* in the initial state and in the targets
    # of step and run-time arcs, so only those states need a closure;
    # and a closure need only name the states that can *do* something.
    live = [bool(rows[q] or arcs[q]) for q in range(len(ops))]
    live[nfa.final] = True
    entered = [nfa.initial]
    entered += [row[5] for state_rows in rows for row in state_rows]
    entered += [arc[5] for state_arcs in arcs for arc in state_arcs]
    closure: list[Optional[tuple]] = [None] * len(ops)
    while entered:
        q = entered.pop()
        if closure[q] is None:
            closure[q] = _masked_closure(q, free, live)
            if closure[q] is None:  # too wide: q's free ops stay run-time arcs
                arcs[q] += tuple((_ARC_FREE, None) + arc for arc in free[q])
                entered += [arc[3] for arc in free[q]]
                free[q] = ()
                live[q] = True
                closure[q] = ((None, q),)
    return dict(
        tracked=tracked,
        closure=tuple(closure),
        arcs=tuple(arcs),
        free=tuple(free),
        live=tuple(live),
        steps=tuple(
            tuple(
                row[:4] + (slots.get(row[6].variable),) + row[5:]
                for row in state_rows
            )
            for state_rows in rows
        )
        if slots
        else rows,
    )


def _masked_closure(q: int, free: list, live: list) -> Optional[tuple]:
    """The ``live`` states of the masked closure of ``q`` under
    ``free``, unconditional pairs first (the per-pop settled set then
    settles each state via its cheapest, mask-free derivation), or
    ``None`` when the closure has more than :data:`_CLOSURE_LIMIT`
    pairs. AND-ing along paths is monotone, so the fixed point always
    terminates (eps cycles re-derive existing pairs)."""
    plain: list[tuple] = []
    masked: list[tuple] = []
    seen: set[tuple] = {(None, q)}
    frontier: list[tuple] = [(None, q)]
    while frontier:
        pair = frontier.pop()
        mask, r = pair
        if live[r]:
            (plain if mask is None else masked).append(pair)
        for arc_mask, _label, _props, target in free[r]:
            pair = (and_masks(mask, arc_mask), target)
            if pair not in seen:
                if len(seen) == _CLOSURE_LIMIT:
                    return None
                seen.add(pair)
                frontier.append(pair)
    return tuple(plain + masked)


#: Backward-pass pops, witness-pass edge expansions or register files
#: interned per deadline check.
_DEADLINE_STRIDE = 1024


def _fire(
    program: ShortestProgram,
    files: list,
    file_id: dict,
    fid: int,
    kind: int,
    operand: Any,
    value: Any,
    depth: int = 0,
) -> int:
    """Apply a run-time arc to file ``fid`` — ``value`` is the key of
    the element a bind sees, ``depth`` the number of edges the run has
    consumed, which only the boundary ops of a tracked group register
    read — and return the id of the resulting file, interning it, or
    -1 when the arc is blocked.

    An open group register holds ``(begin, (end, values), ...)``: the
    depth at which its repetition was entered, then per finished
    iteration the depth it ended at and what the body's registers held
    there. An edgeless iteration right after an edgeless one is
    Figure 3's regrouping: it joins that entry if it bound the same
    values (each body match binds exactly the body's variables, so
    strict unification is equality) and is blocked otherwise. On
    leaving, each body variable's register takes its list as
    ``(begin, end, value)`` triples — the next iteration end of an
    enclosing repetition captures it like any other value. The ambient
    deadline is checked every :data:`_DEADLINE_STRIDE` files interned."""
    if kind == _ARC_FREE:
        return fid
    registers = files[fid]
    if kind == _ARC_BIND:
        bound = registers[operand]
        if bound is not None:  # a join with what the register holds
            return fid if bound == value else -1
        updated = registers[:operand] + (value,) + registers[operand + 1 :]
    elif kind == _ARC_CHECK:
        mu = Assignment(program.registers(registers, program.element))
        try:
            return fid if satisfies(program.snapshot, mu, operand, program.values) else -1
        except (DeadlineExceededError, EvaluationLimitError):
            # Resource errors must surface (deadline_ms -> 504); only a
            # condition that is *undefined* here blocks the transition.
            raise
        except EvaluationError:
            return -1
    elif kind == _ARC_OPEN:
        updated = registers[:operand] + ((depth,),) + registers[operand + 1 :]
    else:
        body, group = operand
        changed = list(registers)
        if kind == _ARC_RESET:
            if group is not None:
                values = tuple(registers[slot] for slot in body)
                entries = registers[group]
                if len(entries) > 1 and entries[-1][0] == depth == (
                    entries[-2][0] if len(entries) > 2 else entries[0]
                ):
                    if entries[-1][1] != values:
                        return -1
                else:
                    changed[group] += ((depth, values),)
            for slot in body:
                changed[slot] = None
        else:  # _ARC_CLOSE
            begin, *iterations = registers[group]
            changed[group] = None
            lists: list[list] = [[] for _ in body]
            for end, values in iterations:
                for triples, value in zip(lists, values):
                    triples.append((begin, end, value))
                begin = end
            for slot, triples in zip(body, lists):
                changed[slot] = tuple(triples)
        updated = tuple(changed)
    found = file_id.get(updated)
    if found is None:
        found = file_id[updated] = len(files)
        files.append(updated)
        if not found % _DEADLINE_STRIDE:
            check_deadline()
    return found


# ---------------------------------------------------------------------------
# Length search
# ---------------------------------------------------------------------------

def coreachable(program: ShortestProgram, ends: Iterable[NodeId]) -> Optional[bytearray]:
    """The ``(node, state)`` pairs, as a ``bytearray`` indexed by ``node
    * num_states + state``, from which some ``(y, final)``, ``y`` in
    ``ends``, is reachable with registers ignored (a superset of what a
    run can reach): one multi-source BFS backwards, a step through the
    core's CSR of the opposite adjacency and the same label, closure
    pairs and run-time arcs on the same node, every mask probed. ``None``
    on a snapshot with an overlay, whose rows are not all the core's.
    The ambient deadline is checked every :data:`_DEADLINE_STRIDE` pops."""
    snapshot = program.snapshot
    if program.overlay_nodes or snapshot._dirty or snapshot._shadow or snapshot._removed:
        return None
    core = snapshot._core
    ns = program.nfa.num_states
    #: Per state, the moves into it: (source, mask, reversed CSR or None).
    into: list[list[tuple]] = [[] for _ in range(ns)]
    for q in range(ns):
        for cmask, r in program.closure[q] or ():
            if r != q:
                into[r].append((q, cmask, None))
        for arc in program.arcs[q]:
            into[arc[5]].append((q, arc[2], None))
        for *_csr, prop_mask, _slot, target, step in program.steps[q]:
            kind = _REVERSED_KIND[_CSR_KIND[step.direction]]
            into[target].append((q, prop_mask, _labelled_csr(core, kind, step.label)))
    reach = bytearray(core.n_nodes * ns)
    queue = [k * ns + program.nfa.final for k in map(program.node_key, ends) if k is not None]
    for packed in queue:
        reach[packed] = 1
    for pops, packed in enumerate(queue, 1):  # grows while it is read
        if not pops % _DEADLINE_STRIDE:
            check_deadline()
        node, s = divmod(packed, ns)
        for q, mask, back in into[s]:
            if back is None:
                key = packed - s + q
                if not reach[key] and (mask is None or mask[node >> 3] & (1 << (node & 7))):
                    reach[key] = 1
                    queue.append(key)
                continue
            off, edge_col, other_col = back
            for i in range(off[node], off[node + 1]):
                key = other_col[i] * ns + q
                edge = edge_col[i]
                if not reach[key] and (mask is None or mask[edge >> 3] & (1 << (edge & 7))):
                    reach[key] = 1
                    queue.append(key)
    return reach


def shortest_pair_lengths(
    program: ShortestProgram, start: NodeId, state_budget: int = 2_000_000,
    reach: Optional[bytearray] = None,
) -> dict[NodeId, int]:
    """Exact minimum accepted path length from ``start`` to every
    reachable end node: 0-1 BFS over the product ``(file, node,
    state)``, one packed int ``(file * span + node) * num_states +
    state`` per product state, ``dist`` a dict keyed by it. Step arcs
    go to the back of the queue and run-time zero-weight arcs to the
    front; a program without the latter runs a plain FIFO BFS. A state
    outside ``reach`` (:func:`coreachable`) is recorded dead when first
    found, never queued: no shortest run to an end of ``reach`` leaves it."""
    snapshot = program.snapshot
    ns = program.nfa.num_states
    final = program.nfa.final
    width = program.span * ns  # product states per register file
    n_nodes = snapshot._core.n_nodes
    dirty = snapshot._dirty
    tables = (program.closure, program.arcs, program.steps)

    files = [(None,) * len(program.tracked)]
    file_id = {files[0]: 0}
    initial = program.start_key(start) * ns + program.nfa.initial
    dist = {initial: 0}
    pruned = int(reach is not None and not reach[initial])  # reaches no end
    queue = deque(() if pruned else (initial,))
    best: dict[int, int] = {}
    expanded = relaxed = probes = 0
    try:
        while queue:
            packed = queue.popleft()
            expanded += 1
            d = dist[packed]
            nd = d + 1
            fid, here = divmod(packed, width)
            node, q = divmod(here, ns)
            onward = packed - here  # the product state (file, 0, 0)
            if node < n_nodes and not (dirty and node in dirty):
                # A clean node: program.at(node), without the call.
                closure_here, arcs_here, steps_here = tables
                byte = node >> 3
                bit = 1 << (node & 7)
            else:  # no mask survives the accessors: nothing to probe
                closure_here, arcs_here, steps_here = program.at(node)
            settled = 0
            for cmask, r in closure_here[q]:
                if cmask is not None:
                    probes += 1
                    if not cmask[byte] & bit:
                        continue
                if settled >> r & 1:
                    continue  # already settled via a cheaper derivation
                settled |= 1 << r
                if r == final and best.get(node, nd) > d:
                    best[node] = d
                for (
                    off, edge_col, succ_col, prop_mask, slot, target, _step
                ) in steps_here[r]:
                    for i in range(off[node], off[node + 1]):
                        if prop_mask is not None:
                            edge = edge_col[i]
                            probes += 1
                            if not prop_mask[edge >> 3] & (1 << (edge & 7)):
                                continue
                        there = succ_col[i] * ns + target
                        if slot is None:
                            key = onward + there
                        else:
                            bound = _fire(
                                program, files, file_id, fid,
                                _ARC_BIND, slot, edge_col[i],
                            )
                            if bound < 0:
                                continue
                            key = bound * width + there
                        old = dist.get(key)
                        if old is None and reach is not None and not reach[there]:
                            dist[key] = -1  # dead: never queued
                            pruned += 1
                        elif old is None or old > nd:
                            dist[key] = nd
                            queue.append(key)
                            relaxed += 1
                for kind, operand, mask, _label, _props, target in arcs_here[r]:
                    if mask is not None:
                        probes += 1
                        if not mask[byte] & bit:
                            continue
                    updated = _fire(
                        program, files, file_id, fid, kind, operand, node
                    )
                    if updated < 0:
                        continue
                    there = node * ns + target
                    key = updated * width + there
                    old = dist.get(key)
                    if old is None and reach is not None and not reach[there]:
                        dist[key] = -1
                        pruned += 1
                    elif old is None or old > d:
                        dist[key] = d
                        queue.appendleft(key)
                        relaxed += 1
            if len(dist) > state_budget:
                raise EvaluationLimitError(
                    f"register search exceeded {state_budget} states"
                )
    finally:
        counters = active_counters()
        if counters is not None:
            counters.nfa_states_expanded += expanded
            counters.search_states_pruned += pruned
            counters.nfa_transitions += relaxed
            counters.mask_probes += probes
            counters.register_files += len(files) - 1
            if not program.tracked:
                counters.dense_fast_lane += 1
    return {program.element(node): d for node, d in best.items()}


# ---------------------------------------------------------------------------
# Witness enumeration
# ---------------------------------------------------------------------------


def shortest_witnesses(
    program: ShortestProgram, start: NodeId, targets: dict[NodeId, int]
) -> dict[NodeId, list[tuple[Path, frozenset[Registers]]]]:
    """One seed's witness walks to exact lengths: :func:`witness_search`."""
    return witness_search(program)(start, targets)


def witness_search(
    program: ShortestProgram, mode: Optional[str] = None, reach: Optional[bytearray] = None
) -> Callable[..., dict[NodeId, list[tuple[Path, frozenset[Registers]]]]]:
    """The witness walks of one seed, for all its targets in one pass:
    set up once per evaluation, the search ``(start, targets, limit)``
    to run per seed.

    ``targets`` maps each wanted end node to the exact walk length
    wanted for it or, in ``mode`` ``"trail"`` (``"simple"``), is the end
    nodes (``None``: all) wanted at any length, and a used set pushed
    and popped with the walk keeps it from repeating an edge (a node,
    the start included). One iterative DFS from ``start`` over the
    program's keys and step rows shares every prefix between the
    targets and runs the register NFA exactly along the way: a frame
    holds the ``(state, file)`` configurations of every run over the
    walk so far, closed under the folded closures and the run-time
    arcs. A walk ending on a target is accepted iff some configuration
    is final, with the tracked registers of those runs — the assignment,
    lists included, when every variable and group register is tracked.
    Pruned by the surviving runs, by the remaining-steps lower bound on
    their states and by ``reach`` (:func:`coreachable`, read at the
    initial state and step targets, which every tracking enters). The
    walk is one key list that moves push onto and pop off; real ids and
    a :class:`Path` are built per accepted walk only, and the lists as
    offsets into that path's elements (:meth:`ShortestProgram.group`),
    no path per entry. The ambient deadline is checked every
    :data:`_DEADLINE_STRIDE` edge expansions; more than ``limit``
    accepted walks raise :class:`~repro.errors.EvaluationLimitError`.
    Returns ``(walk, register files)`` per end node.
    """
    ns, final = program.nfa.num_states, program.nfa.final
    back = program.nfa.backward_distances
    ahead = [  # per state, the fewest edges to the final state through a step
        min((1 + back[t] for _step, t in steps if back[t] >= 0), default=-1)
        for steps in program.nfa.steps
    ]
    files = [(None,) * len(program.tracked)]
    file_id = {files[0]: 0}
    at, element = program.readers()
    by_edge = mode == "trail"
    used_at = -2 if by_edge else -1  # the walk's last edge or node

    def close(node: int, depth: int, configs: Iterable[tuple[int, int]]) -> set:
        """The runs' closure at ``node``, ``depth`` edges in, each op for
        real: binds join, checks read registers, boundary ops note depth."""
        closure_here, arcs_here, _steps = at(node)
        byte, bit = node >> 3, 1 << (node & 7)
        closed: set[tuple[int, int]] = set()
        stack = list(configs)
        while stack:
            q, fid = stack.pop()
            for cmask, r in closure_here[q]:
                if (r, fid) in closed or (cmask is not None and not cmask[byte] & bit):
                    continue
                closed.add((r, fid))
                for kind, operand, mask, _label, _props, target in arcs_here[r]:
                    if mask is not None and not mask[byte] & bit:
                        continue
                    fired = _fire(program, files, file_id, fid, kind, operand, node, depth)
                    if fired >= 0:
                        stack.append((target, fired))
        return closed

    def accept(found: dict, targets: Any, closed: set, walk: list, *last: int) -> int:
        """Keep ``walk`` followed by the keys ``last`` (1) if it ends on a
        target and a run over it is in the final state."""
        end = element(last[-1] if last else walk[-1])
        if (
            targets.get(end) != (len(walk) + len(last)) // 2
            if mode is None
            else targets is not None and end not in targets
        ):
            return 0
        accepting = {fid for q, fid in closed if q == final}
        if not accepting:
            return 0
        # The walk alternates node and edge keys by construction.
        path = Path._trusted(tuple(map(element, (*walk, *last))))
        runs = frozenset(program.registers(files[fid], element, path) for fid in accepting)
        found.setdefault(end, []).append((path, runs))
        return 1

    def search(start: NodeId, targets: Any, limit: Optional[int] = None) -> dict:
        found: dict[NodeId, list[tuple[Path, frozenset[Registers]]]] = {}
        node = program.start_key(start) if targets is None or targets else None
        if node is None or reach is not None and not reach[node * ns + program.nfa.initial]:
            return found  # the seed reaches nothing: no walk to look for
        horizon = float("inf") if mode else max(targets.values())
        used = None if mode is None else set() if by_edge else {node}
        tried = 0
        next_check = _DEADLINE_STRIDE
        configs = close(node, 0, ((program.nfa.initial, 0),))
        walk: list = [node]
        #: Per depth, the moves not yet taken: (edge, successor, configs).
        frames: list[list] = []
        accepted = accept(found, targets, configs, walk)
        try:
            while True:
                depth = len(frames)
                remaining = horizon - depth - 1
                moves: dict[tuple, set[tuple[int, int]]] = {}
                steps_here = at(node)[2]
                for q, fid in configs if remaining >= 0 else ():
                    for off, edges, succs, prop_mask, slot, target, _ in steps_here[q]:
                        for i in range(off[node], off[node + 1]):
                            edge = edges[i]
                            if prop_mask is not None and not (
                                prop_mask[edge >> 3] & (1 << (edge & 7))
                            ):
                                continue
                            bound = fid
                            if slot is not None:
                                bound = _fire(
                                    program, files, file_id, fid, _ARC_BIND, slot, edge
                                )
                                if bound < 0:
                                    continue
                            moves.setdefault((edge, succs[i]), set()).add((target, bound))
                tried += len(moves)
                if tried >= next_check:
                    check_deadline()
                    next_check = tried + _DEADLINE_STRIDE
                # Accept a move when found; push it if a run can step on.
                frame = []
                for (edge, succ), reached in moves.items():
                    if used is not None and (edge if by_edge else succ) in used:
                        continue
                    if reach is not None:
                        reached = {c for c in reached if reach[succ * ns + c[0]]}
                    closed = close(succ, depth + 1, reached)
                    accepted += accept(found, targets, closed, walk, edge, succ)
                    if any(0 <= ahead[q] <= remaining for q, _ in closed):
                        frame.append((edge, succ, closed))
                if limit is not None and accepted > limit:
                    raise EvaluationLimitError(f"intermediate result exceeded {limit} walks")
                frames.append(frame)
                while frames and not frames[-1]:
                    frames.pop()
                    if used is not None and len(walk) > 1:
                        used.discard(walk[used_at])
                    del walk[-2:]
                if not frames:
                    return found
                edge, node, configs = frames[-1].pop()
                walk += (edge, node)
                if used is not None:
                    used.add(walk[used_at])
        finally:
            counters = active_counters()
            if counters is not None:
                counters.witness_steps += tried
                counters.witnesses += accepted

    return search


# ---------------------------------------------------------------------------
# The names the layers benchmark and the tests resolve
# ---------------------------------------------------------------------------
#
# Each lowers at the door (``view`` is a graph or a snapshot); the
# engine lowers once per evaluation and calls the functions above.

compile_dense_program = lower_program


def compile_flat_program(
    nfa: RegisterNFA, view: Any
) -> Optional[ShortestProgram]:
    """The program iff its search tracks no register."""
    return None if nfa.constraining else lower_program(nfa, view)


def dense_shortest_pair_lengths(
    view: Any,
    nfa: RegisterNFA,
    start: NodeId,
    state_budget: int = 2_000_000,
    program: Optional[ShortestProgram] = None,
) -> dict[NodeId, int]:
    program = program or lower_program(nfa, view)
    return shortest_pair_lengths(program, start, state_budget)


def flat_shortest_pair_lengths(
    view: Any, flat: ShortestProgram, start: NodeId, state_budget: int = 2_000_000
) -> dict[NodeId, int]:
    return shortest_pair_lengths(flat, start, state_budget)


def enumerate_shortest_witnesses(
    view: Any, nfa: RegisterNFA, start: NodeId, targets: dict[NodeId, int]
) -> dict[NodeId, list[tuple[Path, frozenset[Registers]]]]:
    """:func:`shortest_witnesses` with every variable tracked, so the
    register files are the runs' full assignments."""
    program = lower_program(nfa, view, tracked=nfa.sites)
    return shortest_witnesses(program, start, targets)


def enumerate_exact_length_walks(
    view: Any, nfa: RegisterNFA, start: NodeId, end: NodeId, length: int
) -> list[Path]:
    """All graph walks from ``start`` to ``end`` of exactly ``length``
    edges accepted by the register NFA."""
    walks = enumerate_shortest_witnesses(view, nfa, start, {end: length})
    return [walk for walk, _runs in walks.get(end, ())]
