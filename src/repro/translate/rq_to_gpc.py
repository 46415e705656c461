"""Regular queries -> GPC+ (the full Appendix B construction).

The translation proceeds exactly as in the paper's appendix:

1. **Inlining.** Every *non-transitive* occurrence of a user-defined
   predicate is eliminated by exhaustively substituting its defining
   rules (with unification of head arguments and fresh renaming of the
   remaining variables). Afterwards user predicates occur only under
   transitive closure, plus in answer-rule bodies handled at step 4.

2. **Disconnected-rule elimination.** Rules whose bodies are not
   connected (viewing atoms as hyperedges on variables) are rewritten:

   - if the head variables lie in *different* components, the rule is
     split off into a fresh predicate ``dotP`` and every transitive
     atom ``P+(x, y)`` is replaced by the five alternatives of the
     appendix (at most one use of the disconnected rule is ever
     needed);
   - if the head variables share a component but extra components
     exist, those extra components are global Boolean side conditions:
     they are collected into a fresh ``bangP(z, z)`` predicate, and
     ``P+(x, y)`` is replaced by ``P+(x, y)`` or
     ``dotP+(x, y), bangP(z, z)``.

3. **Pattern construction.** For each remaining (connected, binary)
   predicate ``P``, a GPC pattern ``pi_P`` is built by structural
   recursion: base atoms become node/edge patterns, ``R+`` becomes
   ``pi_R{1,}``, and rule bodies become chains interleaved with
   ``[-> + <-]*`` connector walks, which is sound because connected
   bodies always match within one weakly-connected subgraph.

4. **Answer rules** become GPC+ rules joining one ``shortest``-pattern
   query per body atom.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from repro.errors import TranslationError
from repro.gpc import ast
from repro.gpc.gpc_plus import GPCPlusQuery, Rule
from repro.baselines.datalog import Clause, DatalogAtom
from repro.baselines.regular_queries import RegularQuery

__all__ = ["regular_query_to_gpc_plus"]

_MAX_REWRITES = 200

#: Connector walk between consecutive body atoms (the paper's
#: ``[-> + <-]^{0..infinity}``).
_CONNECTOR_STEP = ast.Union(ast.forward(), ast.backward())


def _connector() -> ast.Pattern:
    return ast.Repeat(_CONNECTOR_STEP, 0, None)


# ---------------------------------------------------------------------------
# Step 1: inline non-transitive user atoms
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over variable names, preferring 'original' variables
    (those of the host clause) as representatives so that clause heads
    keep their names under unification."""

    def __init__(self, preferred: set[str]):
        self.parent: dict[str, str] = {}
        self.preferred = preferred

    def find(self, variable: str) -> str:
        self.parent.setdefault(variable, variable)
        root = variable
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[variable] != root:
            self.parent[variable], variable = root, self.parent[variable]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # Prefer original variables as representatives.
        if ra in self.preferred or (rb not in self.preferred and ra < rb):
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb


def _substitute(atom: DatalogAtom, mapping) -> DatalogAtom:
    return DatalogAtom(
        atom.predicate,
        tuple(mapping(v) for v in atom.args),
        atom.transitive,
    )


def _inline_step(
    clause: Clause,
    index: int,
    definitions: list[Clause],
    counter: itertools.count,
) -> list[Clause]:
    """Replace the non-transitive user atom at ``index`` by each of its
    definitions, unifying head arguments with the atom's arguments."""
    atom = clause.body[index]
    results = []
    original_vars = {v for a in (clause.head, *clause.body) for v in a.args}
    for definition in definitions:
        fresh = {
            v: f"__i{next(counter)}"
            for a in (definition.head, *definition.body)
            for v in a.args
        }
        uf = _UnionFind(preferred=set(original_vars))
        for head_var, atom_var in zip(definition.head.args, atom.args):
            uf.union(fresh[head_var], atom_var)
        new_body = list(clause.body[:index]) + [
            _substitute(a, lambda v: fresh[v]) for a in definition.body
        ] + list(clause.body[index + 1 :])
        mapped_body = tuple(_substitute(a, uf.find) for a in new_body)
        mapped_head = _substitute(clause.head, uf.find)
        results.append(Clause(mapped_head, mapped_body))
    return results


def _inline_nontransitive(
    clauses: list[Clause], idb: frozenset[str], answer: str, counter: itertools.count
) -> list[Clause]:
    """Exhaustively inline non-transitive user atoms (non-recursive
    programs terminate)."""
    for _ in range(_MAX_REWRITES):
        for position, clause in enumerate(clauses):
            index = next(
                (
                    i
                    for i, a in enumerate(clause.body)
                    if not a.transitive and a.predicate in idb and a.predicate != answer
                ),
                None,
            )
            if index is not None:
                definitions = [
                    c
                    for c in clauses
                    if c.head.predicate == clause.body[index].predicate
                ]
                replacement = _inline_step(clause, index, definitions, counter)
                clauses = clauses[:position] + replacement + clauses[position + 1 :]
                break
        else:
            return clauses
    raise TranslationError("inlining did not terminate (program too large?)")


# ---------------------------------------------------------------------------
# Step 2: eliminate disconnected rules
# ---------------------------------------------------------------------------


def _components(clause: Clause) -> list[set[str]]:
    """Connected components of body variables (atoms are hyperedges)."""
    adjacency: dict[str, set[str]] = {}
    for atom in clause.body:
        for variable in atom.args:
            adjacency.setdefault(variable, set()).update(atom.args)
    components: list[set[str]] = []
    seen: set[str] = set()
    for variable in adjacency:
        if variable in seen:
            continue
        component = set()
        frontier = [variable]
        while frontier:
            v = frontier.pop()
            if v in component:
                continue
            component.add(v)
            frontier.extend(adjacency[v] - component)
        seen.update(component)
        components.append(component)
    return components


def _replace_transitive(
    clauses: list[Clause],
    predicate: str,
    variants,
    counter: itertools.count,
) -> list[Clause]:
    """Replace every transitive atom over ``predicate`` by each variant
    (a function from the atom and a fresh-name source to a list of
    replacement atoms); clauses multiply accordingly."""
    out: list[Clause] = []
    for clause in clauses:
        positions = [
            i
            for i, a in enumerate(clause.body)
            if a.transitive and a.predicate == predicate
        ]
        if not positions:
            out.append(clause)
            continue
        expansions: list[tuple[DatalogAtom, ...]] = [()]
        for i, atom in enumerate(clause.body):
            if i in positions:
                choices = [tuple(v(atom, counter)) for v in variants]
            else:
                choices = [(atom,)]
            expansions = [
                prefix + choice for prefix in expansions for choice in choices
            ]
        for body in expansions:
            out.append(Clause(clause.head, body))
    return out


def _eliminate_disconnected(
    clauses: list[Clause], answer: str, counter: itertools.count
) -> list[Clause]:
    for _ in range(_MAX_REWRITES):
        target = next(
            (
                c
                for c in clauses
                if c.head.predicate != answer and len(_components(c)) > 1
            ),
            None,
        )
        if target is None:
            return clauses
        predicate = target.head.predicate
        x1, x2 = target.head.args
        components = _components(target)
        component_of = {v: frozenset(comp) for comp in components for v in comp}
        clauses = [c for c in clauses if c is not target]
        if component_of[x1] != component_of[x2]:
            # Case (a): head variables in different components.
            dot = f"__dot{next(counter)}"
            clauses.append(Clause(DatalogAtom(dot, (x1, x2)), target.body))

            def v_keep(atom, _ctr):
                return [atom]

            def v_dot(atom, _ctr):
                return [DatalogAtom(dot, atom.args)]

            def v_dot_right(atom, ctr):
                m = f"__m{next(ctr)}"
                return [
                    DatalogAtom(dot, (atom.args[0], m)),
                    DatalogAtom(predicate, (m, atom.args[1]), transitive=True),
                ]

            def v_left_dot(atom, ctr):
                m = f"__m{next(ctr)}"
                return [
                    DatalogAtom(predicate, (atom.args[0], m), transitive=True),
                    DatalogAtom(dot, (m, atom.args[1])),
                ]

            def v_left_dot_right(atom, ctr):
                m1 = f"__m{next(ctr)}"
                m2 = f"__m{next(ctr)}"
                return [
                    DatalogAtom(predicate, (atom.args[0], m1), transitive=True),
                    DatalogAtom(dot, (m1, m2)),
                    DatalogAtom(predicate, (m2, atom.args[1]), transitive=True),
                ]

            clauses = _replace_transitive(
                clauses,
                predicate,
                [v_keep, v_dot, v_dot_right, v_left_dot, v_left_dot_right],
                counter,
            )
            # dot is now used non-transitively: inline it away.
            clauses = _inline_nontransitive(
                clauses, frozenset({dot}), answer, counter
            )
            clauses = [c for c in clauses if c.head.predicate != dot]
        else:
            # Case (b): head variables share a component; the remaining
            # components are global Boolean side conditions.
            main = component_of[x1]
            main_body = tuple(a for a in target.body if set(a.args) <= main)
            extra_body = tuple(a for a in target.body if not set(a.args) <= main)
            dot = f"__dot{next(counter)}"
            bang = f"__bang{next(counter)}"
            # dotP: all other rules of P, plus the main part of this one.
            for other in [c for c in clauses if c.head.predicate == predicate]:
                clauses.append(Clause(DatalogAtom(dot, other.head.args), other.body))
            clauses.append(Clause(DatalogAtom(dot, (x1, x2)), main_body))
            anchor = next(iter(extra_body[0].args))
            clauses.append(
                Clause(DatalogAtom(bang, (anchor, anchor)), extra_body)
            )

            def v_keep(atom, _ctr):
                return [atom]

            def v_side(atom, ctr):
                z = f"__z{next(ctr)}"
                return [
                    DatalogAtom(dot, atom.args, transitive=True),
                    DatalogAtom(bang, (z, z)),
                ]

            clauses = _replace_transitive(clauses, predicate, [v_keep, v_side], counter)
            # bang is used non-transitively: inline it away.
            clauses = _inline_nontransitive(
                clauses, frozenset({bang}), answer, counter
            )
            clauses = [c for c in clauses if c.head.predicate != bang]
    raise TranslationError(
        "disconnected-rule elimination did not terminate; the program may "
        "be pathological"
    )


# ---------------------------------------------------------------------------
# Steps 3 and 4: pattern construction
# ---------------------------------------------------------------------------


class _PatternBuilder:
    def __init__(self, clauses: list[Clause], answer: str):
        self.clauses = clauses
        self.answer = answer
        self.idb = frozenset(c.head.predicate for c in clauses)
        self.counter = itertools.count()
        self._memo: dict[str, ast.Pattern] = {}
        self._in_progress: set[str] = set()

    def fresh(self, base: str) -> str:
        return f"__v{next(self.counter)}_{base}"

    def predicate_pattern(self, predicate: str) -> ast.Pattern:
        """``pi_P`` with fresh variables on each *use* (callers must
        rename); memoised structurally, then alpha-renamed per use."""
        if predicate in self._in_progress:
            raise TranslationError(f"recursive predicate {predicate!r}")
        if predicate not in self._memo:
            self._in_progress.add(predicate)
            disjuncts = [
                self.clause_pattern(c)
                for c in self.clauses
                if c.head.predicate == predicate
            ]
            self._in_progress.discard(predicate)
            if not disjuncts:
                raise TranslationError(f"undefined predicate {predicate!r}")
            pattern = disjuncts[0]
            for disjunct in disjuncts[1:]:
                pattern = ast.Union(pattern, disjunct)
            self._memo[predicate] = pattern
        return _alpha_rename(self._memo[predicate], self.counter)

    def clause_pattern(self, clause: Clause) -> ast.Pattern:
        x1, x2 = clause.head.args
        rename = {
            v: self.fresh(v)
            for a in (clause.head, *clause.body)
            for v in a.args
        }
        parts: list[ast.Pattern] = [ast.node(rename[x1])]
        for body_atom in clause.body:
            parts.append(_connector())
            parts.append(self.atom_pattern(body_atom, rename))
        parts.append(_connector())
        parts.append(ast.node(rename[x2]))
        return ast.concat(*parts)

    def atom_pattern(self, body_atom: DatalogAtom, rename) -> ast.Pattern:
        if len(body_atom.args) == 1:
            if body_atom.predicate in self.idb:
                raise TranslationError(
                    f"unary user predicate {body_atom.predicate!r} is not a "
                    f"regular-query construct"
                )
            return ast.node(rename[body_atom.args[0]], body_atom.predicate)
        subject, object_ = (rename[v] for v in body_atom.args)
        core = self.binary_core(body_atom)
        return ast.concat(ast.node(subject), core, ast.node(object_))

    def binary_core(self, body_atom: DatalogAtom) -> ast.Pattern:
        """The variable-free/fresh-variable pattern between an atom's
        endpoints."""
        if body_atom.predicate in self.idb:
            if not body_atom.transitive:
                raise TranslationError(
                    f"non-transitive user atom {body_atom} survived inlining"
                )
            return ast.Repeat(self.predicate_pattern(body_atom.predicate), 1, None)
        base = ast.forward(label=body_atom.predicate)
        if body_atom.transitive:
            return ast.Repeat(base, 1, None)
        return base


def _alpha_rename(pattern: ast.Pattern, counter: itertools.count) -> ast.Pattern:
    """Rename every variable in ``pattern`` freshly (consistently)."""
    mapping: dict[str, str] = {}

    def rename(variable: str | None) -> str | None:
        if variable is None:
            return None
        if variable not in mapping:
            mapping[variable] = f"__r{next(counter)}_{variable}"
        return mapping[variable]

    def step(p: ast.Pattern, renamed: tuple[ast.Pattern, ...]) -> ast.Pattern:
        if isinstance(p, ast.Conditioned):
            raise TranslationError("conditions cannot occur in RQ patterns")
        if isinstance(p, (ast.NodePattern, ast.EdgePattern)):
            return replace(
                p, descriptor=ast.Descriptor(rename(p.variable), p.label)
            )
        return ast.with_children(p, renamed)

    return ast.fold(pattern, step)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def regular_query_to_gpc_plus(query: RegularQuery) -> GPCPlusQuery:
    """Compile a regular query into an equivalent GPC+ query."""
    program = query.program
    answer = program.answer_predicate
    counter = itertools.count()
    clauses = _inline_nontransitive(
        list(program.clauses), program.idb_predicates, answer, counter
    )
    clauses = _eliminate_disconnected(clauses, answer, counter)
    builder = _PatternBuilder(clauses, answer)

    rules = []
    for clause in clauses:
        if clause.head.predicate != answer:
            continue
        joined: ast.Query | None = None
        for body_atom in clause.body:
            if len(body_atom.args) == 1:
                pattern: ast.Pattern = ast.node(
                    body_atom.args[0], body_atom.predicate
                )
            else:
                subject, object_ = body_atom.args
                core = builder.binary_core(body_atom)
                pattern = ast.concat(ast.node(subject), core, ast.node(object_))
            item = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern)
            joined = item if joined is None else ast.Join(joined, item)
        if joined is None:
            raise TranslationError("empty answer-rule body")
        rules.append(Rule(tuple(clause.head.args), joined))
    if not rules:
        raise TranslationError("no answer rules after preprocessing")
    return GPCPlusQuery(tuple(rules))
