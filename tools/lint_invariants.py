#!/usr/bin/env python3
"""Repo-specific invariant linter (stdlib ``ast`` only — runs anywhere).

Eight invariants that generic linters don't enforce the way this
codebase needs them, and two that generic tools do enforce but that are
checked here too because ruff and mypy are not in every build
container:

- **No bare/broad ``except`` in the engine core or the serving layer**
  (``src/repro/gpc``, ``graph``, ``service`` and ``cluster``): a
  ``try: ... except Exception`` in the evaluation path swallows
  :class:`DeadlineExceededError` / :class:`EvaluationLimitError` and
  turns a cancelled request into a silently-wrong answer. A handler
  that ends in a bare ``raise`` swallows nothing (record, then
  re-raise) and is allowed; a deliberately-defensive site — or one
  that captures the exception as a value for its caller — must carry
  the waiver comment ``lint: allow-broad-except`` on the ``except``
  line (and should re-raise budget errors first).
- **No mutable default arguments** anywhere in ``src/repro``: the
  classic shared-``[]`` bug, but also a cache-poisoning hazard in a
  library whose plans are memoised and shared across threads.
- **No ``assert`` statements for control flow** anywhere in
  ``src/repro``: asserts vanish under ``python -O``; library-side
  validation must raise typed :mod:`repro.errors` exceptions.
  ``lint: allow-assert`` waives a site (e.g. a typing-only narrow).
- **No ``sleep`` in the serving path** (``src/repro/server``,
  ``service`` and ``cluster``): a timer between a request and its
  answer is latency every request pays, idle server or not — wait on
  the event, future, lock or semaphore that says the thing happened.
  ``lint: allow-sleep`` on the call's line waives a site.
- **No unused module-level imports** (pyflakes' F401) in ``src``,
  ``tests``, ``benchmarks`` and ``tools``: a deleted code path leaves
  its imports behind, and an orphan import keeps a dead module alive.
  ``__init__.py`` files (re-exports) and names listed in ``__all__``
  are exempt; ``lint: allow-unused-import`` on the import's line waives
  one kept for its side effect or for importers of the module.
- **Annotated defs in mypy's strict modules** (``INV006``): every
  ``def`` in a module that ``mypy.ini`` checks with
  ``disallow_untyped_defs = True`` (read from the file, never listed
  here) annotates each parameter, ``*args`` and ``**kwargs`` included,
  and its return. A method's first parameter is exempt, and
  ``__init__`` may omit its return once a parameter is annotated, as
  mypy allows.
- **One traversal of the pattern AST** (``INV007``) anywhere in
  ``src/repro``: which fields of a constructor hold sub-expressions is
  known to ``children`` / ``with_children`` in ``gpc/ast.py``, and the
  recursion lives in ``fold`` there. A function that tests
  ``isinstance`` against three or more of the nine GPC constructors
  *and* recurses over them — reaches itself through calls to functions
  of its own module, or pushes ``.left`` / ``.right`` / ``.pattern`` /
  ``.children()`` onto a work list — is a second walker: write it as a
  step function for ``fold``. ``gpc/ast.py`` itself and the entries of
  :data:`WALKER_ALLOWED` (each with its reason) are exempt; an entry
  that no longer matches a walker is itself a finding.
- **One metrics model** (``INV008``) anywhere in ``src/repro``: a stats
  record is a dataclass on ``repro.obs.counters.Counters`` and its
  rendering is derived from its fields, so (i) a function named
  ``as_dict`` / ``counters`` / ``metrics_summary`` may not return a
  dict literal with three or more ``"name": self.name``-shaped entries
  — that is a field list written a second time, which a field added
  later silently misses; and (ii) no module under ``repro/obs`` may
  import from ``repro.service``, ``repro.server`` or ``repro.cluster``,
  at any nesting level (a lazy import inside a function dodges the
  cycle, not the dependency): the model sits below what it measures.
- **One automaton model in the engine** (``INV009``): nothing under
  ``repro/gpc``, ``extensions``, ``service``, ``cluster``, ``server``
  or ``obs`` imports ``repro.automata``, at any nesting level. The
  engine and everything that serves it run on the register NFA of
  ``gpc/register_nfa.py``, one per pattern;
  ``repro.automata`` is the library of the RPQ / C2RPQ baselines and
  of ``translate/``.
- **One serving core, in its caller's thread** (``INV010``): nothing
  under ``repro/service`` imports ``concurrent.futures``, at any
  nesting level. Under the GIL a pool gains the pipeline nothing; the
  parallelism lives in the cluster backends.

All but the import check apply to ``src/repro`` only (tests assert
and poll, that is their job); with no arguments the tool lints
``src/repro`` for all ten and the other three trees for the imports.

Exit status 0 when clean, 1 with findings (one per line, parseable as
``path:line: CODE message``), 2 on usage/syntax errors.
"""

from __future__ import annotations

import ast
import configparser
import sys
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Packages where broad excepts are banned (the evaluation path).
BROAD_EXCEPT_SCOPES = ("gpc", "graph", "service", "cluster", "server")

#: Packages where sleeping is banned (between a request and its answer).
SLEEP_SCOPES = ("server", "service", "cluster")

#: Trees linted for unused imports only (repo-relative).
IMPORT_ONLY_ROOTS = ("tests", "benchmarks", "tools")

#: Functions whose returned dict INV008 reads as a record's rendering.
RENDERING_NAMES = ("as_dict", "counters", "metrics_summary")

#: ``"name": self.name`` entries that make a returned dict a re-spelt
#: field list.
RESPELT_FIELDS = 3

#: Imports a layer may not make, at any nesting level: ``(code,
#: packages under src/repro it binds, modules they may not import, why)``.
IMPORT_BANS = (
    (
        "INV008",
        ("obs",),
        ("repro.service", "repro.server", "repro.cluster"),
        "the metrics model sits below the serving layers",
    ),
    (
        "INV009",
        ("gpc", "extensions", "service", "cluster", "server", "obs"),
        ("repro.automata",),
        "the engine runs on one automaton model, the register NFA; "
        "repro.automata is the RPQ baselines' library",
    ),
    (
        "INV010",
        ("service",),
        ("concurrent.futures",),
        "the serving core runs in its caller's thread; parallelism "
        "lives in the cluster backends",
    ),
)

BROAD_EXCEPT_WAIVER = "lint: allow-broad-except"
ASSERT_WAIVER = "lint: allow-assert"
UNUSED_IMPORT_WAIVER = "lint: allow-unused-import"
SLEEP_WAIVER = "lint: allow-sleep"

#: The nine constructors of the GPC grammar (``repro.gpc.ast``).
GPC_CONSTRUCTORS = frozenset({
    "NodePattern", "EdgePattern", "Union", "Concat", "Conditioned",
    "Repeat", "PatternExtension", "PatternQuery", "Join",
})

#: Attribute reads that mean "a sub-expression of this node".
CHILD_FIELDS = frozenset({"left", "right", "pattern", "children"})

#: The module that owns the traversal (repo-relative, under src/repro).
WALKER_HOME = "gpc/ast.py"

#: Hand-rolled walkers that stay, by design: ``(module, function)`` →
#: why ``fold`` does not serve it.
WALKER_ALLOWED = {
    ("gpc/semantics.py", "_dispatch"): (
        "the Section 5 specification: indexed by a length bound, and the "
        "oracle the differential suites compare every fast path against"
    ),
    ("enumeration/span_matcher.py", "_dispatch"): (
        "an evaluator over (walk, start, end) spans, not over the tree alone"
    ),
    ("extensions/bag_semantics.py", "_dispatch"): (
        "an evaluator: the bag semantics of Section 7, length-indexed "
        "like the one it is compared with"
    ),
    ("gpc/register_nfa.py", "_compile"): (
        "threads a builder and a push environment top-down; a repeat "
        "compiles its body once per copy"
    ),
}

#: Exception names considered "broad" when caught directly.
BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: Call targets considered mutable default constructors.
MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


class Finding(NamedTuple):
    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _is_broad_exception(node: "ast.expr | None") -> bool:
    if node is None:
        return True  # bare ``except:``
    if isinstance(node, ast.Name):
        return node.id in BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(_is_broad_exception(item) for item in node.elts)
    return False


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler's last statement is a bare ``raise``."""
    last = handler.body[-1]
    return isinstance(last, ast.Raise) and last.exc is None


def _respelt_fields(node: ast.Dict) -> int:
    """How many entries of a dict literal are ``"name": self.name``."""
    return sum(
        isinstance(key, ast.Constant)
        and isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
        and value.attr == key.value
        for key, value in zip(node.keys, node.values)
    )


def _imported_modules(node: "ast.Import | ast.ImportFrom") -> list[str]:
    """The absolute module names an import statement reaches (a name
    imported *from* a package may be its submodule)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not node.module or node.level:
        return []
    return [node.module, *(f"{node.module}.{a.name}" for a in node.names)]


def strict_modules(config: Path) -> "frozenset[str]":
    """The paths under ``src/repro`` of the modules ``config`` checks
    with ``disallow_untyped_defs = True``: a ``[mypy-repro.a.b]``
    section names ``a/b.py`` (or the package ``a/b/__init__.py``), a
    ``[mypy-repro.a.*]`` section every module under ``a/``."""
    parser = configparser.ConfigParser()
    parser.read(config, encoding="utf-8")
    found: set[str] = set()
    for section in parser.sections():
        if not section.startswith("mypy-repro.") or not parser.getboolean(
            section, "disallow_untyped_defs", fallback=False
        ):
            continue
        path = section[len("mypy-repro."):].replace(".", "/")
        if path.endswith("/*"):
            found.add(path[:-1])  # a prefix: "a/"
        else:
            found.update((f"{path}.py", f"{path}/__init__.py"))
    return frozenset(found)


def _is_strict(module: "str | None", strict: "frozenset[str]") -> bool:
    return module is not None and any(
        module == entry or (entry.endswith("/") and module.startswith(entry))
        for entry in strict
    )


def _unannotated(
    node: "ast.FunctionDef | ast.AsyncFunctionDef", method: bool
) -> "list[str]":
    """What INV006 finds missing on one ``def``: the names of its
    unannotated parameters, then ``return``. A method's first
    parameter (``self`` / ``cls``) needs none, and ``__init__`` may
    omit its return once a parameter is annotated — what mypy allows
    under ``disallow_untyped_defs``."""
    arguments = node.args
    params = [*arguments.posonlyargs, *arguments.args]
    static = any(
        "staticmethod" in _terminal_names(d) for d in node.decorator_list
    )
    if method and params and not static:
        params = params[1:]
    named = [(param.arg, param) for param in (*params, *arguments.kwonlyargs)]
    named += [
        (star + param.arg, param)
        for star, param in (("*", arguments.vararg), ("**", arguments.kwarg))
        if param is not None
    ]
    missing = [name for name, param in named if param.annotation is None]
    implied = method and node.name == "__init__" and len(missing) < len(named)
    if node.returns is None and not implied:
        missing.append("return")
    return missing


def _is_mutable_default(node: "ast.expr | None") -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_CALLS
    return False


def _module_level_imports(tree: ast.Module) -> "list[tuple[str, ast.alias]]":
    """``(bound name, alias node)`` of every import statement outside a
    function or class body (``if``/``try``/``with`` blocks at module
    level count: a guarded import still binds a module global)."""
    found = []
    pending: list[ast.stmt] = list(tree.body)
    while pending:
        statement = pending.pop()
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                bound = alias.asname or alias.name.partition(".")[0]
                found.append((bound, alias))
        elif isinstance(statement, ast.ImportFrom):
            if statement.module == "__future__":
                continue
            for alias in statement.names:
                if alias.name != "*":
                    found.append((alias.asname or alias.name, alias))
        elif not isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for field in ("body", "orelse", "finalbody"):
                pending.extend(getattr(statement, field, ()))
            for handler in getattr(statement, "handlers", ()):
                pending.extend(handler.body)
    return found


def _names_used(tree: ast.Module) -> set[str]:
    """Every name the module reads: ``Name`` nodes, the names inside
    string annotations, and the strings of ``__all__``."""
    used: set[str] = set()
    strings: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            strings += _string_constants(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            strings += _string_constants(node.returns)
        elif isinstance(node, ast.AnnAssign):
            strings += _string_constants(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(_string_constants(node.value))
    for text in strings:
        try:
            annotation = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(
            node.id for node in ast.walk(annotation) if isinstance(node, ast.Name)
        )
    return used


def _string_constants(node: "ast.AST | None") -> list[str]:
    if node is None:
        return []
    return [
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    ]


def _terminal_names(node: "ast.AST | None") -> set[str]:
    """The last component of every (dotted) name inside ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node) if node is not None else ():
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _called_name(call: ast.Call) -> "str | None":
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def _walkers(tree: ast.Module) -> "list[ast.FunctionDef]":
    """The functions of one module that INV007 is about: each tests
    ``isinstance`` against three or more GPC constructors and recurses
    over them. Name-based and module-local on purpose — a step function
    handed to ``fold`` is an argument, not a call, and is not one."""
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Module-level tuples of constructors (``_NESTING = (ast.Join, …)``)
    # count as what they list when handed to isinstance.
    aliases = {
        target.id: _terminal_names(statement.value) & GPC_CONSTRUCTORS
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and isinstance(statement.value, ast.Tuple)
        for target in statement.targets
        if isinstance(target, ast.Name)
    }
    calls: dict[str, set[str]] = {}
    for function in functions:
        called = calls.setdefault(function.name, set())
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                called.add(_called_name(node) or "")
    found = []
    for function in functions:
        tested: set[str] = set()
        pushes = False
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name == "isinstance" and len(node.args) == 2:
                for terminal in _terminal_names(node.args[1]):
                    tested |= aliases.get(terminal, set())
                    if terminal in GPC_CONSTRUCTORS:
                        tested.add(terminal)
            elif name in ("append", "extend", "appendleft") and any(
                _terminal_names(argument) & CHILD_FIELDS
                for argument in node.args
            ):
                pushes = True
        if len(tested) < 3:
            continue
        reached: set[str] = set()
        frontier = [function.name]
        while frontier and function.name not in reached:
            for callee in calls.get(frontier.pop(), ()):
                if callee in calls and callee not in reached:
                    reached.add(callee)
                    frontier.append(callee)
        if pushes or function.name in reached:
            found.append(function)
    return found


class _Checker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        lines: list[str],
        scope_broad: bool,
        library: bool,
        scope_sleep: bool,
        module: "str | None" = None,
        typed: bool = False,
    ):
        self.path = path
        self.lines = lines
        self.scope_broad = scope_broad
        self.scope_sleep = scope_sleep
        #: Whether INV006 applies (a strict module of mypy.ini).
        self.typed = typed
        #: ``id`` of every ``def`` that sits directly in a class body.
        self.methods: set[int] = set()
        #: Whether INV001-003 and INV005 apply (``src/repro``, and files
        #: named explicitly); INV004 applies everywhere.
        self.library = library
        #: The module's path under ``src/repro`` (INV007's allow-list
        #: key), or ``None`` outside it.
        self.module = module
        self.findings: list[Finding] = []
        self.allowed_walkers: set[tuple[str, str]] = set()

    def check(self, tree: ast.Module) -> None:
        if self.library:
            self.visit(tree)
            self._check_walkers(tree)
        if Path(self.path).name == "__init__.py":
            return
        used = _names_used(tree)
        for bound, alias in _module_level_imports(tree):
            if bound not in used and UNUSED_IMPORT_WAIVER not in self._line(
                alias.lineno
            ):
                self._add(
                    alias,
                    "INV004",
                    f"unused import '{bound}'; remove it or waive with "
                    f"'{UNUSED_IMPORT_WAIVER}'",
                )

    def _check_walkers(self, tree: ast.Module) -> None:
        if self.module == WALKER_HOME:
            return
        for function in _walkers(tree):
            key = (self.module or "", function.name)
            if key in WALKER_ALLOWED:
                self.allowed_walkers.add(key)
                continue
            self._add(
                function,
                "INV007",
                f"{function.name}() dispatches on GPC constructors and "
                "recurses over them; write it as a step function for "
                "repro.gpc.ast.fold (or use children/with_children)",
            )

    def _line(self, lineno: int) -> str:
        return self.lines[lineno - 1] if 0 < lineno <= len(self.lines) else ""

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, code, message))

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if (
            self.scope_broad
            and _is_broad_exception(node.type)
            and not _reraises(node)
            and BROAD_EXCEPT_WAIVER not in self._line(node.lineno)
        ):
            caught = "bare except" if node.type is None else "except Exception"
            self._add(
                node,
                "INV001",
                f"{caught} in the evaluation path swallows deadline/limit "
                f"errors; narrow it or waive with '{BROAD_EXCEPT_WAIVER}'",
            )
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        arguments = node.args
        name = getattr(node, "name", "<lambda>")
        for default in [*arguments.defaults, *arguments.kw_defaults]:
            if _is_mutable_default(default):
                self._add(
                    default,
                    "INV002",
                    f"mutable default argument in {name}(); "
                    "use None and construct inside the body",
                )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.methods.update(
            id(item)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._check_rendering(node)
        self._check_annotations(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._check_annotations(node)
        self.generic_visit(node)

    def _check_annotations(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        """INV006: every ``def`` of a strict module is annotated."""
        if not self.typed:
            return
        missing = _unannotated(node, id(node) in self.methods)
        if missing:
            self._add(
                node,
                "INV006",
                f"{node.name}() leaves {', '.join(missing)} unannotated; "
                "mypy.ini checks this module with disallow_untyped_defs",
            )

    def _check_rendering(self, node: ast.FunctionDef) -> None:
        """INV008 (i): a rendering that re-spells the record's fields."""
        if node.name not in RENDERING_NAMES:
            return
        for inner in ast.walk(node):
            if isinstance(inner, ast.Dict):
                respelt = _respelt_fields(inner)
                if respelt >= RESPELT_FIELDS:
                    self._add(
                        inner,
                        "INV008",
                        f"{node.name}() spells {respelt} fields out again as "
                        f"'\"name\": self.name'; declare them on a Counters "
                        f"record and derive the rendering from its fields",
                    )

    def _check_import_bans(self, node: "ast.Import | ast.ImportFrom") -> None:
        """INV008 (ii), INV009 and INV010: a layer imports nothing it must not
        depend on."""
        if self.module is None:
            return
        package = self.module.split("/")[0]
        reached = _imported_modules(node)
        for code, packages, forbidden, why in IMPORT_BANS:
            if package not in packages:
                continue
            for banned in forbidden:
                if any(n == banned or n.startswith(banned + ".") for n in reached):
                    self._add(
                        node,
                        code,
                        f"repro.{package} imports {banned}: {why} (a lazy "
                        f"import hides the dependency, it does not remove it)",
                    )

    def visit_Import(self, node: ast.Import) -> None:
        self._check_import_bans(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_import_bans(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        if ASSERT_WAIVER not in self._line(node.lineno):
            self._add(
                node,
                "INV003",
                "assert used for control flow vanishes under python -O; "
                "raise a typed repro.errors exception instead",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else getattr(func, "id", None)
        )
        if (
            self.scope_sleep
            and name == "sleep"
            and SLEEP_WAIVER not in self._line(node.lineno)
        ):
            self._add(
                node,
                "INV005",
                "sleep in the serving path is latency every request pays; "
                "wait on what signals the condition, or waive with "
                f"'{SLEEP_WAIVER}'",
            )
        self.generic_visit(node)


def check_source(
    source: str,
    path: str = "<string>",
    *,
    scope_broad_except: bool = True,
    library: bool = True,
    scope_sleep: bool = True,
    module: "str | None" = None,
    allowed_walkers: "set[tuple[str, str]] | None" = None,
    typed: bool = False,
) -> list[Finding]:
    """Lint one module's source text (the unit-testable core).
    ``library=False`` checks the imports only. ``module`` is the path
    under ``src/repro`` that INV007's allow-list knows the file by;
    the entries it used are added to ``allowed_walkers``. ``typed``
    turns on INV006 (the module is strict in mypy.ini)."""
    tree = ast.parse(source, filename=path)
    checker = _Checker(
        str(path),
        source.splitlines(),
        scope_broad_except,
        library,
        scope_sleep,
        module,
        typed,
    )
    checker.check(tree)
    if allowed_walkers is not None:
        allowed_walkers |= checker.allowed_walkers
    return sorted(checker.findings)


def _in_scope(path: Path, packages: "tuple[str, ...]") -> bool:
    relative = path.relative_to(SRC_ROOT)
    return bool(relative.parts) and relative.parts[0] in packages


def _in_broad_scope(path: Path) -> bool:
    return _in_scope(path, BROAD_EXCEPT_SCOPES)


def main(argv: "list[str] | None" = None) -> int:
    roots = [Path(arg) for arg in (argv or [])] or [
        SRC_ROOT,
        *(REPO_ROOT / name for name in IMPORT_ONLY_ROOTS),
    ]
    import_only = tuple(REPO_ROOT / name for name in IMPORT_ONLY_ROOTS)
    findings: list[Finding] = []
    allowed_walkers: set[tuple[str, str]] = set()
    modules: set[str] = set()
    strict = strict_modules(REPO_ROOT / "mypy.ini")
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            try:
                source = file.read_text(encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot read {file}: {exc}", file=sys.stderr)
                return 2
            # Files outside src/repro (explicit arguments, e.g. in the
            # linter's own tests) get the strict scope.
            in_src = file.is_relative_to(SRC_ROOT)
            module = file.relative_to(SRC_ROOT).as_posix() if in_src else None
            modules.add(module)
            try:
                findings.extend(
                    check_source(
                        source,
                        str(file.relative_to(REPO_ROOT))
                        if file.is_relative_to(REPO_ROOT)
                        else str(file),
                        scope_broad_except=not in_src
                        or _in_broad_scope(file),
                        library=not any(
                            file.is_relative_to(root) for root in import_only
                        ),
                        scope_sleep=not in_src
                        or _in_scope(file, SLEEP_SCOPES),
                        module=module,
                        allowed_walkers=allowed_walkers,
                        typed=_is_strict(module, strict),
                    )
                )
            except SyntaxError as exc:
                print(f"error: cannot parse {file}: {exc}", file=sys.stderr)
                return 2
    # An exemption that has outlived the walker it was written for.
    findings.extend(
        Finding(
            "tools/lint_invariants.py",
            1,
            "INV007",
            f"WALKER_ALLOWED names {function}() in {module}, which is "
            "not a walker (any more); drop the entry",
        )
        for module, function in sorted(set(WALKER_ALLOWED) - allowed_walkers)
        if module in modules
    )
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
