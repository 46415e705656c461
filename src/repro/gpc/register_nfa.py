"""Register automata for exact ``shortest`` evaluation.

The condition-free NFA abstraction over-approximates patterns: it
drops property conditions *and* the implicit joins of repeated
variables, so its accepted pairs may include endpoint pairs no true
match connects. Computing ``shortest`` by iterative deepening against
such candidates explodes (the bounded denotation of a pattern grows
exponentially with the length horizon — Theorem 13).

This module compiles patterns into *register* NFAs instead:

- ``bind(x)`` transitions bind (or check) a register against the
  current node;
- edge steps optionally bind/check an edge register;
- ``check(theta)`` transitions evaluate property conditions against
  the bound registers (well-typedness guarantees the variables are
  bound by then);
- ``reset(V)`` transitions clear a repetition body's registers between
  iterations (group variables impose no cross-iteration constraints).

A 0-1 BFS over ``(node, state, registers)`` then yields the *exact*
minimum match length per endpoint pair, in time polynomial in the
product size (registers stay few in practice). Witness paths of those
exact lengths are enumerated by one DFS per seed that runs the same
product, so each witness comes with the register files of its
accepting runs. Those are the assignments whenever no repetition has
anything to ``collect`` (:func:`collect_requirement`); otherwise the
span matcher factorises the witness and builds the group values.

One caveat, handled by the engine: under the GROUPING collect mode an
accepted run can exist while every factorization's ``collect`` is
undefined (edgeless-run unification failure), so the minimum is a
lower bound in that corner; the engine then probes longer lengths.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.direction import Direction
from repro.errors import (
    DeadlineExceededError,
    EvaluationError,
    EvaluationLimitError,
    UnknownIdError,
)
from repro.graph.ids import NodeId
from repro.graph.paths import Path
from repro.graph.property_graph import PropertyGraph
from repro.gpc import ast
from repro.gpc.assignments import Assignment
from repro.gpc.collect import CollectMode
from repro.gpc.conditions import satisfies
from repro.gpc.conditions_ast import And, Condition, PropertyEqualsConst
from repro.gpc.minlength import may_match_edgeless
from repro.gpc.planner import split_pushdown
from repro.obs.counters import active_counters
from repro.obs.deadline import check_deadline

__all__ = [
    "RegisterNFA",
    "UnsupportedPattern",
    "compile_register_nfa",
    "collect_requirement",
    "DenseProgram",
    "compile_dense_program",
    "dense_shortest_pair_lengths",
    "FlatProgram",
    "compile_flat_program",
    "flat_shortest_pair_lengths",
    "enumerate_shortest_witnesses",
    "enumerate_exact_length_walks",
]


class UnsupportedPattern(Exception):
    """The pattern uses a construct the register compiler cannot
    handle (engine falls back to bounded deepening)."""


@dataclass(frozen=True)
class _Eps:
    pass


@dataclass(frozen=True)
class _NodeTest:
    label: str


#: Pushed ``x.key = const`` atoms attached to a bind/step site:
#: sorted-hashable frozenset of ``(key, const)`` pairs. Every pair must
#: hold on the element the site touches (defined *and* equal, the same
#: truth :func:`repro.gpc.conditions.satisfies` computes), or the
#: transition is blocked.
PushedProps = frozenset


@dataclass(frozen=True)
class _Bind:
    variable: str
    props: PushedProps = frozenset()


@dataclass(frozen=True)
class _Check:
    condition: Condition


@dataclass(frozen=True)
class _Reset:
    variables: frozenset[str]


@dataclass(frozen=True)
class _EdgeStep:
    direction: Direction
    label: Optional[str]
    variable: Optional[str]
    props: PushedProps = frozenset()


@dataclass
class RegisterNFA:
    num_states: int
    initial: int
    final: int
    #: zero-weight transitions per state: (op, target)
    zero: tuple[tuple[tuple[object, int], ...], ...]
    #: edge-step (weight 1) transitions per state
    steps: tuple[tuple[tuple[_EdgeStep, int], ...], ...]
    #: condition atoms the compiler attached to bind/step sites instead
    #: of leaving them in a final CHECK (0 without pushdown)
    pushed_atoms: int = 0

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


@dataclass
class _Builder:
    state_limit: int = 100_000
    pushdown: bool = False
    zero: list[list[tuple[object, int]]] = field(default_factory=list)
    steps: list[list[tuple[_EdgeStep, int]]] = field(default_factory=list)
    #: per-variable count of bind/step sites that *attached* pushed
    #: atoms; a Conditioned elides an atom from its residual check only
    #: when compiling its subtree grew this count (i.e. some in-subtree
    #: site carries the test).
    attached: dict[str, int] = field(default_factory=dict)
    pushed_atoms: int = 0

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

    def add_step(self, source: int, step: _EdgeStep, target: int) -> None:
        self.steps[source].append((step, target))

    def note_attached(self, variable: str) -> None:
        self.attached[variable] = self.attached.get(variable, 0) + 1


#: Compile-time environment: variable -> pushed (key, const) atoms the
#: enclosing Conditioned wrappers want tested at that variable's
#: bind/step sites.
_PushEnv = dict


def compile_register_nfa(
    pattern: ast.Pattern,
    state_limit: int = 100_000,
    pushdown: bool = False,
) -> RegisterNFA:
    """Compile a pattern into a register NFA.

    With ``pushdown=True``, single-variable ``x.key = const`` atoms on
    the positive ``And`` spine of each condition are attached to the
    bind/step sites of ``x`` inside the Conditioned subtree (failing
    candidates die at bind time) and elided from the residual CHECK.
    Elision only happens when compilation proves an in-subtree site
    took the atom; atoms whose variable binds only inside a repetition
    body or an extension child fall back to the residual check, so the
    rewrite is answer-preserving by construction.

    Raises :class:`UnsupportedPattern` for extension constructs that do
    not fit the register model (e.g. arithmetic conditions over group
    counts).
    """
    builder = _Builder(state_limit=state_limit, pushdown=pushdown)
    start, end = _compile(pattern, builder, {})
    return RegisterNFA(
        num_states=len(builder.zero),
        initial=start,
        final=end,
        zero=tuple(tuple(z) for z in builder.zero),
        steps=tuple(tuple(s) for s in builder.steps),
        pushed_atoms=builder.pushed_atoms,
    )


def _compile(
    pattern: ast.Pattern, builder: _Builder, pushed: _PushEnv
) -> tuple[int, int]:
    if isinstance(pattern, ast.NodePattern):
        start = builder.new_state()
        end = builder.new_state()
        current = start
        if pattern.label is not None:
            mid = builder.new_state()
            builder.add_zero(current, _NodeTest(pattern.label), mid)
            current = mid
        if pattern.variable is not None:
            props = pushed.get(pattern.variable)
            if props:
                builder.add_zero(
                    current, _Bind(pattern.variable, props), end
                )
                builder.note_attached(pattern.variable)
            else:
                builder.add_zero(current, _Bind(pattern.variable), end)
        else:
            builder.add_zero(current, _Eps(), end)
        return start, end
    if isinstance(pattern, ast.EdgePattern):
        start = builder.new_state()
        end = builder.new_state()
        props = (
            pushed.get(pattern.variable)
            if pattern.variable is not None
            else None
        )
        if props:
            builder.note_attached(pattern.variable)
        builder.add_step(
            start,
            _EdgeStep(
                pattern.direction,
                pattern.label,
                pattern.variable,
                props or frozenset(),
            ),
            end,
        )
        return start, end
    if isinstance(pattern, ast.Concat):
        left_start, left_end = _compile(pattern.left, builder, pushed)
        right_start, right_end = _compile(pattern.right, builder, pushed)
        builder.add_zero(left_end, _Eps(), right_start)
        return left_start, right_end
    if isinstance(pattern, ast.Union):
        start = builder.new_state()
        end = builder.new_state()
        for branch in (pattern.left, pattern.right):
            b_start, b_end = _compile(branch, builder, pushed)
            builder.add_zero(start, _Eps(), b_start)
            builder.add_zero(b_end, _Eps(), end)
        return start, end
    if isinstance(pattern, ast.Conditioned):
        return _compile_conditioned(pattern, builder, pushed)
    if isinstance(pattern, ast.Repeat):
        return _compile_repeat(pattern, builder)
    if isinstance(pattern, ast.PatternExtension):
        hook = getattr(pattern, "compile_register_ext", None)
        if hook is None:
            raise UnsupportedPattern(
                f"extension {type(pattern).__name__} has no register "
                f"compilation"
            )
        # Extension children compile with an empty push environment:
        # their internal structure is opaque, so no atom may be elided
        # on their account (the attached-count check above guarantees
        # the enclosing Conditioned keeps such atoms in its residue).
        return hook(builder, lambda child: _compile(child, builder, {}))
    raise TypeError(f"not a pattern: {pattern!r}")


def _compile_conditioned(
    pattern: ast.Conditioned, builder: _Builder, pushed: _PushEnv
) -> tuple[int, int]:
    if not builder.pushdown:
        inner_start, inner_end = _compile(pattern.pattern, builder, pushed)
        end = builder.new_state()
        builder.add_zero(inner_end, _Check(pattern.condition), end)
        return inner_start, end
    atoms, residue = split_pushdown(pattern.condition)
    if not atoms:
        inner_start, inner_end = _compile(pattern.pattern, builder, pushed)
        end = builder.new_state()
        builder.add_zero(inner_end, _Check(pattern.condition), end)
        return inner_start, end
    child_env: _PushEnv = dict(pushed)
    for variable, var_atoms in atoms.items():
        child_env[variable] = child_env.get(variable, frozenset()) | var_atoms
    before = {v: builder.attached.get(v, 0) for v in atoms}
    inner_start, inner_end = _compile(pattern.pattern, builder, child_env)
    for variable in sorted(atoms):
        var_atoms = atoms[variable]
        if builder.attached.get(variable, 0) > before[variable]:
            # Some bind/step site of the variable inside the subtree
            # carries the test (and every accepting run traverses one:
            # the variable is in the inner schema, union branches share
            # schemas, and repetition/extension sites never attach), so
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
    body_vars = frozenset(ast.variables(pattern.pattern))
    reset = _Reset(body_vars)

    def body_copy(source: int) -> int:
        """One body iteration followed by a register reset.

        The body compiles with an empty push environment: an atom from
        an *enclosing* Conditioned must hold of the single value its
        variable takes across the whole match, whereas a site inside
        the body binds afresh every iteration — attaching there would
        change which runs survive.
        """
        b_start, b_end = _compile(pattern.pattern, builder, {})
        builder.add_zero(source, _Eps(), b_start)
        after = builder.new_state()
        builder.add_zero(b_end, reset if body_vars else _Eps(), after)
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
    return start, end


def collect_requirement(
    pattern: ast.Pattern, collect_mode: CollectMode
) -> Optional[str]:
    """Why an accepting run's registers do not determine the assignment
    of the walk it accepts, or ``None`` when they do (the pattern is
    *run-complete*).

    A repetition body that binds a variable needs ``collect`` to build
    the group value (and the resets above forget its registers). A
    body that binds nothing contributes nothing to the assignment, but
    outside ``GROUPING`` ``collect`` is undefined on an edgeless factor
    whatever it binds, so such a body must always consume an edge.
    Extension constructs are opaque."""
    for sub in ast.iter_subpatterns(pattern):
        if isinstance(sub, ast.PatternExtension):
            return f"extension {type(sub).__name__}"
        if isinstance(sub, ast.Repeat):
            bound = ast.variables(sub.pattern)
            if bound:
                return f"repeat body binds {', '.join(sorted(bound))}"
            if collect_mode is not CollectMode.GROUPING and may_match_edgeless(
                sub.pattern
            ):
                return "repeat body may match an edgeless path"
    return None


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

Registers = tuple[tuple[str, object], ...]  # sorted (variable, id) pairs


def _bind_register(
    registers: Registers, variable: str, value: object
) -> Optional[Registers]:
    """Bind ``variable`` to ``value``, or join with what it already
    holds; ``None`` when the join fails."""
    current = dict(registers)
    bound = current.get(variable)
    if bound is None:
        current[variable] = value
        return tuple(sorted(current.items()))
    return registers if bound == value else None


def _apply_zero(
    op: object,
    node: NodeId,
    registers: Registers,
    graph: PropertyGraph,
) -> Optional[Registers]:
    """Apply a zero-weight op at ``node``; ``None`` when blocked."""
    if isinstance(op, _Eps):
        return registers
    if isinstance(op, _NodeTest):
        return registers if op.label in graph.labels(node) else None
    if isinstance(op, _Bind):
        for key, const in op.props:
            value = graph.get_property(node, key)
            if value is None or value != const:
                return None
        return _bind_register(registers, op.variable, node)
    if isinstance(op, _Check):
        mu = Assignment({v: value for v, value in registers})
        try:
            ok = satisfies(graph, mu, op.condition)
        except (DeadlineExceededError, EvaluationLimitError):
            # Resource errors must surface (deadline_ms -> 504); only a
            # condition that is *undefined* here blocks the transition.
            raise
        except EvaluationError:
            return None
        return registers if ok else None
    if isinstance(op, _Reset):
        kept = tuple(
            (v, value) for v, value in registers if v not in op.variables
        )
        return kept
    raise TypeError(f"unknown op {op!r}")


def _props_hold(graph, element, props: PushedProps) -> bool:
    """Whether every pushed ``key = const`` atom holds on ``element``
    (defined and equal — the exact truth ``satisfies`` computes)."""
    for key, const in props:
        value = graph.get_property(element, key)
        if value is None or value != const:
            return False
    return True


def _step_targets(
    step: _EdgeStep, node: NodeId, graph: PropertyGraph
) -> list[tuple[object, NodeId]]:
    """Edges usable from ``node`` under ``step``: (edge, next node)."""
    out = []
    props = step.props
    if step.direction is Direction.FORWARD:
        for edge in graph.out_edges(node):
            if step.label is None or step.label in graph.labels(edge):
                if props and not _props_hold(graph, edge, props):
                    continue
                out.append((edge, graph.target(edge)))
    elif step.direction is Direction.BACKWARD:
        for edge in graph.in_edges(node):
            if step.label is None or step.label in graph.labels(edge):
                if props and not _props_hold(graph, edge, props):
                    continue
                out.append((edge, graph.source(edge)))
    else:
        for edge in graph.undirected_edges_at(node):
            if step.label is None or step.label in graph.labels(edge):
                if props and not _props_hold(graph, edge, props):
                    continue
                out.append((edge, graph.other_endpoint(edge, node)))
    return out


# ---------------------------------------------------------------------------
# Dense-id search
# ---------------------------------------------------------------------------
#
# Over a columnar :class:`~repro.graph.snapshot.GraphSnapshot` the 0-1
# BFS runs on interned integer ids and CSR slices instead of ``_Id``
# wrappers and adjacency tuples: node/edge identity becomes an ``int``,
# label tests become one bit of a per-label bitmask over dense ids, and
# neighbour expansion is a contiguous slice of two parallel
# ``array('i')`` columns. Search states whose node lives only
# in a derive overlay (or whose CSR row was patched) step through the
# snapshot's view accessors instead, translating successors back into
# dense keys, so mixed core/overlay graphs stay exact. The key
# invariant is that the dense-key translation is deterministic per
# snapshot — each element is keyed either always by its int or always
# by its ``_Id`` — so register equality and ``dist`` dedup behave
# exactly as they would on the real ids.

_OP_EPS = 0
_OP_TEST = 1
_OP_BIND = 2
_OP_CHECK = 3
_OP_RESET = 4

_STEP_FORWARD = 0
_STEP_BACKWARD = 1
_STEP_UNDIRECTED = 2


@dataclass(frozen=True)
class DenseProgram:
    """A register NFA lowered onto one snapshot's interning tables.

    ``zero`` holds per-state tuples ``(kind, payload, target)`` with
    ``kind`` one of the ``_OP_*`` codes. TEST payloads are
    ``(label, label_mask)`` and BIND payloads
    ``(variable, prop_mask, props)``; the masks are dense-id bitmasks
    baked from the snapshot's column indexes (``prop_mask`` is ``None``
    when the bind carries no pushed atoms), so the hot loop probes one
    bit instead of materialising label sets or assignments. ``steps``
    holds per-state tuples
    ``(direction_code, label, label_mask, variable, prop_mask, props,
    target)`` with the same conventions (``label_mask`` is ``None`` for
    unlabelled steps). The string/frozenset halves of each payload
    drive the overlay fallback for elements that are not dense ints."""

    zero: tuple
    steps: tuple


def _pushed_prop_mask(snapshot, props: PushedProps):
    """AND-combine the snapshot's per-atom bitmasks (``None`` when the
    site has no pushed atoms)."""
    mask = None
    for key, const in sorted(props, key=repr):
        atom_mask = snapshot.property_mask(key, const)
        if mask is None:
            mask = atom_mask
        else:
            mask = bytes(a & b for a, b in zip(mask, atom_mask))
    return mask


def compile_dense_program(nfa: RegisterNFA, snapshot) -> DenseProgram:
    """Lower ``nfa``'s ops onto ``snapshot``'s column indexes.

    Compile once per (pattern, snapshot) pair and reuse across seeds —
    the result is only valid for the snapshot whose label interning and
    bitmask indexes it captured."""
    zero = []
    for transitions in nfa.zero:
        row = []
        for op, target in transitions:
            if isinstance(op, _Eps):
                row.append((_OP_EPS, None, target))
            elif isinstance(op, _NodeTest):
                row.append(
                    (
                        _OP_TEST,
                        (op.label, snapshot.label_mask(op.label)),
                        target,
                    )
                )
            elif isinstance(op, _Bind):
                row.append(
                    (
                        _OP_BIND,
                        (
                            op.variable,
                            _pushed_prop_mask(snapshot, op.props),
                            op.props,
                        ),
                        target,
                    )
                )
            elif isinstance(op, _Check):
                row.append((_OP_CHECK, op.condition, target))
            elif isinstance(op, _Reset):
                row.append((_OP_RESET, op.variables, target))
            else:
                raise TypeError(f"unknown op {op!r}")
        zero.append(tuple(row))
    steps = []
    for transitions in nfa.steps:
        row = []
        for step, target in transitions:
            if step.direction is Direction.FORWARD:
                code = _STEP_FORWARD
            elif step.direction is Direction.BACKWARD:
                code = _STEP_BACKWARD
            else:
                code = _STEP_UNDIRECTED
            label_mask = (
                None
                if step.label is None
                else snapshot.label_mask(step.label)
            )
            row.append(
                (
                    code,
                    step.label,
                    label_mask,
                    step.variable,
                    _pushed_prop_mask(snapshot, step.props),
                    step.props,
                    target,
                )
            )
        steps.append(tuple(row))
    return DenseProgram(zero=tuple(zero), steps=tuple(steps))


def dense_shortest_pair_lengths(
    snapshot,
    nfa: RegisterNFA,
    start: NodeId,
    state_budget: int = 2_000_000,
    program: Optional[DenseProgram] = None,
) -> dict[NodeId, int]:
    """Exact minimum accepted path length from ``start`` to every
    reachable end node, via 0-1 BFS over (node, state, registers) on a
    columnar :class:`~repro.graph.snapshot.GraphSnapshot`.

    Returns real element ids. Core nodes with unpatched CSR rows expand
    via integer column slices; overlay, shadowed, and dirty nodes fall
    back to the view accessors."""
    if program is None:
        program = compile_dense_program(nfa, snapshot)
    core = snapshot._core
    dense = core.dense
    elements = core.elements
    out_off, out_edge, out_tgt = core.out_off, core.out_edge, core.out_tgt
    in_off, in_edge, in_src = core.in_off, core.in_edge, core.in_src
    und_off, und_edge, und_other = (
        core.und_off,
        core.und_edge,
        core.und_other,
    )
    dirty = snapshot._dirty
    shadow = snapshot._shadow
    zero_prog = program.zero
    step_prog = program.steps
    final = nfa.final

    initial = (snapshot.dense_start_key(start), nfa.initial, ())
    dist: dict[tuple, int] = {initial: 0}
    queue: deque[tuple] = deque([initial])
    best: dict = {}
    expanded = 0
    relaxed = 0
    probes = 0
    try:
        while queue:
            state = queue.popleft()
            expanded += 1
            node, q, registers = state
            d = dist[state]
            if q == final and (node not in best or d < best[node]):
                best[node] = d
            node_is_int = type(node) is int
            for kind, payload, target in zero_prog[q]:
                if kind == _OP_EPS:
                    updated = registers
                elif kind == _OP_TEST:
                    if node_is_int:
                        probes += 1
                        if not payload[1][node >> 3] & (1 << (node & 7)):
                            continue
                    elif payload[0] not in snapshot.labels(node):
                        continue
                    updated = registers
                elif kind == _OP_BIND:
                    variable, prop_mask, props = payload
                    if prop_mask is not None:
                        if node_is_int:
                            probes += 1
                            if not prop_mask[node >> 3] & (1 << (node & 7)):
                                continue
                        elif not _props_hold(snapshot, node, props):
                            continue
                    current = dict(registers)
                    bound = current.get(variable)
                    if bound is None:
                        current[variable] = node
                        updated = tuple(sorted(current.items()))
                    elif bound == node:
                        updated = registers
                    else:
                        continue
                elif kind == _OP_CHECK:
                    mu = Assignment(
                        {
                            v: elements[value] if type(value) is int else value
                            for v, value in registers
                        }
                    )
                    try:
                        ok = satisfies(snapshot, mu, payload)
                    except (DeadlineExceededError, EvaluationLimitError):
                        raise
                    except EvaluationError:
                        continue
                    if not ok:
                        continue
                    updated = registers
                else:  # _OP_RESET
                    updated = tuple(
                        (v, value)
                        for v, value in registers
                        if v not in payload
                    )
                key = (node, target, updated)
                if key not in dist or dist[key] > d:
                    dist[key] = d
                    queue.appendleft(key)
                    relaxed += 1
            steps_here = step_prog[q]
            if steps_here and node_is_int and not (dirty and node in dirty):
                for (
                    code,
                    _label,
                    label_mask,
                    variable,
                    prop_mask,
                    _props,
                    target,
                ) in steps_here:
                    if code == _STEP_FORWARD:
                        lo, hi = out_off[node], out_off[node + 1]
                        edge_col, succ_col = out_edge, out_tgt
                    elif code == _STEP_BACKWARD:
                        lo, hi = in_off[node], in_off[node + 1]
                        edge_col, succ_col = in_edge, in_src
                    else:
                        lo, hi = und_off[node], und_off[node + 1]
                        edge_col, succ_col = und_edge, und_other
                    for i in range(lo, hi):
                        edge = edge_col[i]
                        if label_mask is not None:
                            probes += 1
                            if not label_mask[edge >> 3] & (1 << (edge & 7)):
                                continue
                        if prop_mask is not None:
                            probes += 1
                            if not prop_mask[edge >> 3] & (1 << (edge & 7)):
                                continue
                        updated = registers
                        if variable is not None:
                            current = dict(registers)
                            bound = current.get(variable)
                            if bound is None:
                                current[variable] = edge
                                updated = tuple(sorted(current.items()))
                            elif bound != edge:
                                continue
                        key = (succ_col[i], target, updated)
                        if key not in dist or dist[key] > d + 1:
                            dist[key] = d + 1
                            queue.append(key)
                            relaxed += 1
            elif steps_here:
                real = elements[node] if node_is_int else node
                for (
                    code,
                    label,
                    _label_mask,
                    variable,
                    _prop_mask,
                    props,
                    target,
                ) in steps_here:
                    if code == _STEP_FORWARD:
                        pairs = [
                            (e, snapshot.target(e))
                            for e in snapshot.out_edges(real)
                        ]
                    elif code == _STEP_BACKWARD:
                        pairs = [
                            (e, snapshot.source(e))
                            for e in snapshot.in_edges(real)
                        ]
                    else:
                        pairs = [
                            (e, snapshot.other_endpoint(e, real))
                            for e in snapshot.undirected_edges_at(real)
                        ]
                    for edge, successor in pairs:
                        if (
                            label is not None
                            and label not in snapshot.labels(edge)
                        ):
                            continue
                        if props and not _props_hold(snapshot, edge, props):
                            continue
                        updated = registers
                        if variable is not None:
                            edge_key = dense.get(edge, edge)
                            current = dict(registers)
                            bound = current.get(variable)
                            if bound is None:
                                current[variable] = edge_key
                                updated = tuple(sorted(current.items()))
                            elif bound != edge_key:
                                continue
                        succ_dense = dense.get(successor)
                        if succ_dense is None or (
                            shadow and succ_dense in shadow
                        ):
                            succ_key = successor
                        else:
                            succ_key = succ_dense
                        key = (succ_key, target, updated)
                        if key not in dist or dist[key] > d + 1:
                            dist[key] = d + 1
                            queue.append(key)
                            relaxed += 1
            if len(dist) > state_budget:
                raise EvaluationLimitError(
                    f"register search exceeded {state_budget} states"
                )
    finally:
        counters = active_counters()
        if counters is not None:
            counters.nfa_states_expanded += expanded
            counters.nfa_transitions += relaxed
            counters.mask_probes += probes
    return {
        (elements[node] if type(node) is int else node): d
        for node, d in best.items()
    }


# ---------------------------------------------------------------------------
# Register-free flat-array fast lane
# ---------------------------------------------------------------------------
#
# The common RPQ-shaped case — after pushdown elided every CHECK and no
# variable is repeated — never consults registers at all: every bind
# fires on an unbound register (single static site per variable, and
# repetition resets clear body registers before their site is reached
# again), so the product state collapses to ``(node, nfa_state)``. On a
# pristine snapshot both halves are small ints, so the whole search can
# run over a flat ``array('i')`` distance table indexed by
# ``node * num_states + state`` with a deque of packed ints: no tuple
# hashing, no register dicts, no per-state allocations. Labelled step
# arcs resolve to label-restricted CSR rows (only matching edges are
# walked); pushed property atoms stay per-edge bitmask probes; arcs on
# labels absent from the core are dropped at compile time.


@dataclass(frozen=True)
class FlatProgram:
    """A :class:`DenseProgram` specialised to the register-free case.

    ``closure`` holds, per state ``q``, the masked epsilon closure:
    tuples ``(mask, r)`` meaning state ``r`` is reachable from ``q``
    through zero-weight ops whose node tests and pushed-prop binds
    AND-combine to ``mask`` (``None`` = unconditional; pairs with
    ``None`` masks sort first). Folding the closure at compile time
    leaves only weight-1 transitions at run time, so the search is a
    plain FIFO BFS with no zero-weight re-relaxation. ``steps`` holds
    per-state tuples ``(off, edge, other, prop_mask, target)`` — a CSR
    triple already restricted to the arc's direction and label (via
    :meth:`SnapshotColumns.filtered_csr`, so a labelled traversal walks
    only matching edges) plus an optional pushed-prop bitmask probed
    per surviving edge. Only valid for the pristine snapshot it was
    compiled against."""

    num_states: int
    initial: int
    final: int
    closure: tuple
    steps: tuple


def _and_masks(left, right):
    if left is None:
        return right
    if right is None:
        return left
    return bytes(a & b for a, b in zip(left, right))


#: Closure pairs per state beyond which the flat lane bails out to the
#: dense program — a backstop against pathological eps/mask lattices.
_CLOSURE_LIMIT = 64


def _masked_closures(zero_rows: tuple) -> Optional[tuple]:
    """Per-state masked epsilon closures of lowered ``(mask, target)``
    zero rows, or ``None`` when a closure exceeds :data:`_CLOSURE_LIMIT`
    distinct pairs. AND-ing along paths is monotone, so the fixed point
    always terminates (eps cycles re-derive existing pairs)."""
    closures = []
    for q in range(len(zero_rows)):
        pairs = {(None, q)}
        frontier = [(None, q)]
        while frontier:
            mask, r = frontier.pop()
            for arc_mask, target in zero_rows[r]:
                pair = (_and_masks(mask, arc_mask), target)
                if pair not in pairs:
                    pairs.add(pair)
                    frontier.append(pair)
                    if len(pairs) > _CLOSURE_LIMIT:
                        return None
        # Unconditional pairs first: the runner's per-pop seen set then
        # settles each state via its cheapest (mask-free) derivation.
        closures.append(
            tuple(sorted(pairs, key=lambda pair: pair[0] is not None))
        )
    return tuple(closures)


def compile_flat_program(nfa: RegisterNFA, snapshot) -> Optional[FlatProgram]:
    """Lower ``nfa`` to a :class:`FlatProgram`, or ``None`` when the
    register-free collapse would not be sound.

    Eligibility: the snapshot is pristine (no overlays — every element
    is a live core element with authoritative columns), the program has
    no residual CHECK (registers are never *read*), and no variable has
    more than one bind/step site (registers never *constrain*: each
    site binds fresh, loop re-entry passes a reset first)."""
    if not snapshot.pristine:
        return None
    sites: dict[str, int] = {}
    for transitions in nfa.zero:
        for op, _target in transitions:
            if isinstance(op, _Check):
                return None
            if isinstance(op, _Bind):
                sites[op.variable] = sites.get(op.variable, 0) + 1
    for transitions in nfa.steps:
        for step, _target in transitions:
            if step.variable is not None:
                sites[step.variable] = sites.get(step.variable, 0) + 1
    if any(count > 1 for count in sites.values()):
        return None
    label_index = snapshot._core.label_index
    zero = []
    for transitions in nfa.zero:
        row = []
        for op, target in transitions:
            if isinstance(op, (_Eps, _Reset)):
                row.append((None, target))
            elif isinstance(op, _NodeTest):
                if op.label not in label_index:
                    continue  # no core element carries it: dead arc
                row.append((snapshot.label_mask(op.label), target))
            elif isinstance(op, _Bind):
                row.append((_pushed_prop_mask(snapshot, op.props), target))
            else:  # pragma: no cover - _Check rejected above
                return None
        zero.append(tuple(row))
    closures = _masked_closures(tuple(zero))
    if closures is None:
        return None
    core = snapshot._core
    steps = []
    for transitions in nfa.steps:
        row = []
        for step, target in transitions:
            if step.label is not None and step.label not in label_index:
                continue  # dead arc
            if step.direction is Direction.FORWARD:
                kind = "out"
            elif step.direction is Direction.BACKWARD:
                kind = "in"
            else:
                kind = "und"
            if step.label is None:
                if kind == "out":
                    triple = (core.out_off, core.out_edge, core.out_tgt)
                elif kind == "in":
                    triple = (core.in_off, core.in_edge, core.in_src)
                else:
                    triple = (core.und_off, core.und_edge, core.und_other)
            else:
                triple = core.filtered_csr(kind, label_index[step.label])
            prop_mask = _pushed_prop_mask(snapshot, step.props)
            row.append(triple + (prop_mask, target))
        steps.append(tuple(row))
    return FlatProgram(
        num_states=nfa.num_states,
        initial=nfa.initial,
        final=nfa.final,
        closure=closures,
        steps=tuple(steps),
    )


def flat_shortest_pair_lengths(
    snapshot,
    flat: FlatProgram,
    start: NodeId,
    state_budget: int = 2_000_000,
) -> dict[NodeId, int]:
    """:func:`dense_shortest_pair_lengths` for a :class:`FlatProgram`.

    Same search and budget semantics, but states are packed ints over
    a flat distance array (-1 = undiscovered) instead of dict-keyed
    tuples, and the compile-time epsilon closures leave only weight-1
    transitions — a plain FIFO BFS, where first discovery is final.
    Only call with the pristine snapshot the program was compiled for,
    where every node is a core node."""
    core = snapshot._core
    elements = core.elements
    ns = flat.num_states
    closure_prog = flat.closure
    step_prog = flat.steps
    final = flat.final

    start_dense = snapshot.dense_start_key(start)
    if type(start_dense) is not int:
        raise UnknownIdError(f"unknown node {start!r}")
    dist = array("i", [-1]) * (core.n_nodes * ns)
    initial = start_dense * ns + flat.initial
    dist[initial] = 0
    queue: deque[int] = deque([initial])
    best: dict[int, int] = {}
    expanded = 0
    relaxed = 0
    probes = 0
    discovered = 1
    try:
        while queue:
            packed = queue.popleft()
            expanded += 1
            node, q = divmod(packed, ns)
            d = dist[packed]
            nd = d + 1
            byte = node >> 3
            bit = 1 << (node & 7)
            settled = 0
            for cmask, r in closure_prog[q]:
                if cmask is not None:
                    probes += 1
                    if not cmask[byte] & bit:
                        continue
                if settled >> r & 1:
                    continue  # already settled via a cheaper derivation
                settled |= 1 << r
                if r == final and node not in best:
                    best[node] = d
                for off, edge_col, succ_col, prop_mask, target in step_prog[r]:
                    for i in range(off[node], off[node + 1]):
                        if prop_mask is not None:
                            edge = edge_col[i]
                            probes += 1
                            if not prop_mask[edge >> 3] & (1 << (edge & 7)):
                                continue
                        key = succ_col[i] * ns + target
                        if dist[key] < 0:
                            dist[key] = nd
                            queue.append(key)
                            relaxed += 1
                            discovered += 1
            if discovered > state_budget:
                raise EvaluationLimitError(
                    f"register search exceeded {state_budget} states"
                )
    finally:
        counters = active_counters()
        if counters is not None:
            counters.nfa_states_expanded += expanded
            counters.nfa_transitions += relaxed
            counters.mask_probes += probes
            counters.dense_fast_lane += 1
    return {elements[node]: d for node, d in best.items()}


# ---------------------------------------------------------------------------
# Witness enumeration
# ---------------------------------------------------------------------------

#: Edge expansions between two deadline checks inside the witness pass.
_DEADLINE_STRIDE = 1024

#: A run's position at a node: ``(state, registers)``.
_Config = tuple[int, Registers]


def _closure(
    nfa: RegisterNFA, graph: PropertyGraph, node: NodeId, configs
) -> set[_Config]:
    """Closure of ``configs`` at ``node`` under the zero-weight ops,
    each applied for real: binds join, checks read the registers."""
    closure = set(configs)
    stack = list(closure)
    zero = nfa.zero
    while stack:
        q, registers = stack.pop()
        for op, target in zero[q]:
            updated = _apply_zero(op, node, registers, graph)
            if updated is None:
                continue
            config = (target, updated)
            if config not in closure:
                closure.add(config)
                stack.append(config)
    return closure


def enumerate_shortest_witnesses(
    graph: PropertyGraph,
    nfa: RegisterNFA,
    start: NodeId,
    targets: dict[NodeId, int],
) -> dict[NodeId, list[tuple[Path, frozenset[Registers]]]]:
    """One seed's witness walks, for all its targets in one pass.

    ``targets`` maps each wanted end node to the exact walk length
    wanted for it. One iterative DFS from ``start``, bounded by the
    largest wanted length, shares every prefix between the targets and
    runs the register NFA exactly along the way: a frame holds the
    ``(state, registers)`` configurations of every run over the walk so
    far. A walk is accepted at depth ``d`` on node ``v`` iff
    ``targets[v] == d`` and some configuration is in the final state;
    it is returned with the register files of those accepting runs.
    Pruned by the runs that survive and by the remaining-steps lower
    bound on their states, so it explores nothing a join, a check or a
    pushed atom rejects. The walk is one element list that moves push
    onto and pop off; a :class:`Path` is built per accepted walk only.
    The ambient deadline is checked every :data:`_DEADLINE_STRIDE` edge
    expansions. Returns ``(walk, register files)`` per end node.
    """
    found: dict[NodeId, list[tuple[Path, frozenset[Registers]]]] = {}
    if not targets:
        return found  # the seed reaches nothing: no walk to look for
    horizon = max(targets.values())
    back = nfa.backward_distances
    final = nfa.final
    steps = nfa.steps
    tried = accepted = 0
    next_check = _DEADLINE_STRIDE
    node = start
    configs = _closure(nfa, graph, start, ((nfa.initial, ()),))
    elements: list = [start]
    #: Per depth, the moves not yet taken: (edge, successor, configs).
    frames: list[list] = []
    try:
        while True:
            depth = len(frames)
            if targets.get(node) == depth:
                runs = frozenset(
                    registers for q, registers in configs if q == final
                )
                if runs:
                    found.setdefault(node, []).append((Path(elements), runs))
                    accepted += 1
            remaining = horizon - depth - 1
            moves: dict[tuple[object, NodeId], set[_Config]] = {}
            if remaining >= 0:
                takers: dict[_EdgeStep, list[_Config]] = {}
                for q, registers in configs:
                    for step, target in steps[q]:
                        takers.setdefault(step, []).append((target, registers))
                for step, entering in takers.items():
                    variable = step.variable
                    for move in _step_targets(step, node, graph):
                        for target, registers in entering:
                            if variable is not None:
                                registers = _bind_register(
                                    registers, variable, move[0]
                                )
                                if registers is None:
                                    continue
                            moves.setdefault(move, set()).add(
                                (target, registers)
                            )
            tried += len(moves)
            if tried >= next_check:
                check_deadline()
                next_check = tried + _DEADLINE_STRIDE
            frame = []
            for (edge, successor), reached in moves.items():
                closure = _closure(nfa, graph, successor, reached)
                if any(0 <= back[q] <= remaining for q, _ in closure):
                    frame.append((edge, successor, closure))
            frames.append(frame)
            while frames and not frames[-1]:
                frames.pop()
                del elements[-2:]
            if not frames:
                return found
            edge, node, configs = frames[-1].pop()
            elements += (edge, node)
    finally:
        counters = active_counters()
        if counters is not None:
            counters.witness_steps += tried
            counters.witnesses += accepted


def enumerate_exact_length_walks(
    graph: PropertyGraph,
    nfa: RegisterNFA,
    start: NodeId,
    end: NodeId,
    length: int,
) -> list[Path]:
    """All graph walks from ``start`` to ``end`` of exactly ``length``
    edges accepted by the register NFA:
    :func:`enumerate_shortest_witnesses` for one target, registers
    dropped."""
    walks = enumerate_shortest_witnesses(graph, nfa, start, {end: length})
    return [walk for walk, _runs in walks.get(end, ())]
