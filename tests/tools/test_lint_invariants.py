"""Tests for ``tools/lint_invariants.py`` (the repo-invariant linter).

The tool lives outside the ``repro`` package, so it is loaded by file
path. ``check_source`` is the testable core; ``main`` is exercised for
its exit codes on seeded good/bad trees.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "lint_invariants", REPO_ROOT / "tools" / "lint_invariants.py"
)
lint_invariants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint_invariants)


def codes(source: str, **kwargs) -> list[str]:
    return [
        finding.code
        for finding in lint_invariants.check_source(
            source, Path("probe.py"), **kwargs
        )
    ]


class TestBroadExcept:
    BROAD = "try:\n    pass\nexcept Exception:\n    pass\n"
    BARE = "try:\n    pass\nexcept:\n    pass\n"
    NARROW = "try:\n    pass\nexcept ValueError:\n    pass\n"
    TUPLE = "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
    WAIVED = (
        "try:\n    pass\n"
        "except Exception:  # lint: allow-broad-except\n    pass\n"
    )

    def test_broad_except_flagged(self):
        assert codes(self.BROAD) == ["INV001"]

    def test_bare_except_flagged(self):
        assert codes(self.BARE) == ["INV001"]

    def test_exception_inside_tuple_flagged(self):
        assert codes(self.TUPLE) == ["INV001"]

    def test_narrow_except_ok(self):
        assert codes(self.NARROW) == []

    def test_waiver_comment_suppresses(self):
        assert codes(self.WAIVED) == []

    def test_out_of_scope_files_skip_broad_except(self):
        assert codes(self.BROAD, scope_broad_except=False) == []

    def test_record_then_reraise_swallows_nothing(self):
        reraise = (
            "from logging import exception as log\n"
            "try:\n    pass\n"
            "except Exception as exc:\n    log(exc)\n    raise\n"
        )
        assert codes(reraise) == []
        # Only a *bare* trailing raise counts: raising something else
        # (or raising early and falling through) can still swallow.
        wrapped = reraise.replace("    raise\n", "    raise ValueError()\n")
        assert codes(wrapped) == ["INV001"]
        early = (
            "x = 0\n"
            "try:\n    pass\n"
            "except Exception:\n    if x:\n        raise\n    pass\n"
        )
        assert codes(early) == ["INV001"]

    def test_serving_layer_is_in_scope(self):
        src = lint_invariants.SRC_ROOT
        for package in ("gpc", "graph", "service", "cluster", "server"):
            assert lint_invariants._in_broad_scope(src / package / "x.py")
        assert not lint_invariants._in_broad_scope(src / "obs" / "trace.py")

    def test_server_handlers_are_narrow_or_waived_with_a_reason(self):
        # The 500 boundary, a batch member's render and the startup
        # thread capture the exception as a value; everything else
        # names its types.
        for name in ("app.py", "wire.py"):
            path = lint_invariants.SRC_ROOT / "server" / name
            source = path.read_text(encoding="utf-8")
            assert lint_invariants._in_broad_scope(path)
            assert lint_invariants.check_source(source, path) == []
            stripped = source.replace(lint_invariants.BROAD_EXCEPT_WAIVER, "")
            waived = lint_invariants.check_source(stripped, path)
            assert len(waived) == (3 if name == "app.py" else 0)


class TestMutableDefaults:
    def test_list_default(self):
        assert codes("def f(x=[]):\n    pass\n") == ["INV002"]

    def test_dict_and_set_calls(self):
        assert codes("def f(x=dict(), y=set()):\n    pass\n") == [
            "INV002",
            "INV002",
        ]

    def test_keyword_only_default(self):
        assert codes("def f(*, x={}):\n    pass\n") == ["INV002"]

    def test_comprehension_default(self):
        assert codes("def f(x=[i for i in range(3)]):\n    pass\n") == [
            "INV002"
        ]

    def test_lambda_default(self):
        assert codes("g = lambda x=[]: x\n") == ["INV002"]

    def test_immutable_defaults_ok(self):
        assert codes("def f(x=(), y=None, z=1, w=frozenset()):\n    pass\n") == []


class TestAsserts:
    def test_assert_flagged(self):
        assert codes("def f(x):\n    assert x\n") == ["INV003"]

    def test_waived_assert_ok(self):
        assert (
            codes("def f(x):\n    assert x  # lint: allow-assert\n") == []
        )

    def test_asserts_unscoped_like_defaults(self):
        # INV002/INV003 apply everywhere, even when broad-except
        # checking is scoped out.
        assert codes(
            "def f(x=[]):\n    assert x\n", scope_broad_except=False
        ) == ["INV002", "INV003"]


class TestSleep:
    def test_timer_calls_flagged_however_they_are_spelled(self):
        for source in (
            "import asyncio\nasync def f():\n    await asyncio.sleep(0)\n",
            "import time\ndef f():\n    time.sleep(1)\n",
            "from time import sleep\ndef f():\n    sleep(1)\n",
        ):
            assert codes(source) == ["INV005"]

    def test_waiver_comment_suppresses(self):
        waived = "import time\ntime.sleep(1)  # lint: allow-sleep\n"
        assert codes(waived) == []

    def test_only_the_serving_path_is_in_scope(self):
        source = "import time\ntime.sleep(1)\n"
        assert codes(source, scope_sleep=False) == []
        assert codes(source, library=False) == []
        src = lint_invariants.SRC_ROOT
        in_scope = {
            package
            for package in ("server", "service", "cluster", "gpc", "graph", "obs")
            if lint_invariants._in_scope(
                src / package / "x.py", lint_invariants.SLEEP_SCOPES
            )
        }
        assert in_scope == {"server", "service", "cluster"}


class TestOneTraversal:
    RECURSIVE = (
        "from repro.gpc import ast\n"
        "def depth(p):\n"
        "    if isinstance(p, (ast.Union, ast.Concat)):\n"
        "        return 1 + max(depth(p.left), depth(p.right))\n"
        "    if isinstance(p, ast.Repeat):\n"
        "        return 1 + depth(p.pattern)\n"
        "    return 0\n"
    )
    MUTUAL = (
        "from repro.gpc.ast import Conditioned, Join, PatternQuery\n"
        "def walk(q):\n"
        "    if isinstance(q, Join):\n"
        "        return sides(q)\n"
        "    if isinstance(q, (PatternQuery, Conditioned)):\n"
        "        return walk(q.pattern)\n"
        "def sides(q):\n"
        "    return walk(q.left) + walk(q.right)\n"
    )
    WORK_LIST = (
        "from repro.gpc import ast\n"
        "_NESTING = (ast.Union, ast.Concat, ast.Join)\n"
        "def count(p):\n"
        "    n, stack = 0, [p]\n"
        "    while stack:\n"
        "        cur = stack.pop()\n"
        "        n += 1\n"
        "        if isinstance(cur, _NESTING):\n"
        "            stack.append(cur.left)\n"
        "            stack.append(cur.right)\n"
        "        elif isinstance(cur, ast.PatternExtension):\n"
        "            stack.extend(cur.children())\n"
        "    return n\n"
    )
    STEP = (
        "from repro.gpc import ast\n"
        "def depth_step(p, depths):\n"
        "    if isinstance(p, (ast.NodePattern, ast.EdgePattern)):\n"
        "        return 0\n"
        "    if isinstance(p, (ast.Union, ast.Concat, ast.Repeat)):\n"
        "        return 1 + max(depths)\n"
        "    return max(depths)\n"
        "def depth(p):\n"
        "    return ast.fold(p, depth_step)\n"
    )

    def test_a_second_walker_is_flagged_however_it_recurses(self):
        for source in (self.RECURSIVE, self.MUTUAL, self.WORK_LIST):
            assert codes(source) == ["INV007"]

    def test_a_step_function_is_not_a_walker(self):
        assert codes(self.STEP) == []

    def test_two_constructors_or_no_recursion_is_fine(self):
        two = self.RECURSIVE.replace("(ast.Union, ast.Concat)", "ast.Union")
        assert codes(two) == []
        flat = self.RECURSIVE.replace("depth(p.", "len(p.")
        assert codes(flat) == []

    def test_only_the_library_is_in_scope(self):
        assert codes(self.RECURSIVE, library=False) == []

    def test_the_traversal_module_and_the_named_evaluators_are_exempt(self):
        renamed = self.RECURSIVE.replace("depth", "_dispatch")
        assert codes(renamed, module="gpc/semantics.py") == []
        assert codes(renamed, module="gpc/typing.py") == ["INV007"]
        assert codes(self.WORK_LIST, module=lint_invariants.WALKER_HOME) == []
        # Exactly the three evaluators and the one compiler, each
        # with the reason fold does not serve it.
        assert sorted(lint_invariants.WALKER_ALLOWED) == [
            ("enumeration/span_matcher.py", "_dispatch"),
            ("extensions/bag_semantics.py", "_dispatch"),
            ("gpc/register_nfa.py", "_compile"),
            ("gpc/semantics.py", "_dispatch"),
        ]
        assert all(lint_invariants.WALKER_ALLOWED.values())

    def test_an_exemption_that_matches_no_walker_is_reported(
        self, tmp_path, monkeypatch, capsys
    ):
        library = tmp_path / "src" / "repro"
        (library / "gpc").mkdir(parents=True)
        (library / "gpc" / "semantics.py").write_text(
            "def _dispatch(p):\n    return p\n", encoding="utf-8"
        )
        monkeypatch.setattr(lint_invariants, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(lint_invariants, "SRC_ROOT", library)
        assert lint_invariants.main([str(library)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert "INV007" in out[0] and "gpc/semantics.py" in out[0]


class TestOneMetricsModel:
    """INV008: a record's rendering is derived from its fields, and
    ``repro.obs`` imports none of the layers it measures."""

    RESPELT = (
        "class Stats:\n"
        "    def as_dict(self):\n"
        "        return {\n"
        '            "hits": self.hits,\n'
        '            "misses": self.misses,\n'
        '            "evictions": self.evictions,\n'
        "        }\n"
    )
    DERIVED = (
        "from dataclasses import fields\n"
        "class Stats:\n"
        "    def as_dict(self):\n"
        "        return {f.name: getattr(self, f.name) for f in fields(self)}\n"
    )

    def test_a_field_list_written_again_is_flagged(self):
        assert codes(self.RESPELT) == ["INV008"]

    def test_every_rendering_name_is_covered(self):
        for name in lint_invariants.RENDERING_NAMES:
            assert codes(self.RESPELT.replace("as_dict", name)) == ["INV008"]
        assert codes(self.RESPELT.replace("as_dict", "describe")) == []

    def test_a_rendering_derived_from_the_fields_is_fine(self):
        assert codes(self.DERIVED) == []

    def test_two_entries_or_renamed_keys_are_not_a_field_list(self):
        two = self.RESPELT.replace('            "evictions": self.evictions,\n', "")
        assert codes(two) == []
        # A key that is not the attribute's own name is a view, not a
        # re-spelling (``"slow": self._slow_recorded``).
        renamed = self.RESPELT.replace('"misses": self.misses', '"missed": self.misses')
        assert codes(renamed) == []

    def test_only_the_library_is_in_scope(self):
        assert codes(self.RESPELT, library=False) == []

    def test_obs_may_not_import_a_serving_layer_at_any_depth(self):
        top = "from repro.service.stats import LatencyRecorder\n_ = LatencyRecorder\n"
        lazy = (
            "class QueryInsight:\n"
            "    def __init__(self):\n"
            "        from repro.service.stats import LatencyRecorder\n"
            "        self.latency = LatencyRecorder()\n"
        )
        plain = "import repro.cluster\n_ = repro\n"
        for source in (top, lazy, plain):
            assert codes(source, module="obs/insights.py") == ["INV008"]

    def test_obs_may_import_what_sits_below_it(self):
        below = "from repro.errors import GPCError\nfrom repro.obs.counters import Counters\n_ = (GPCError, Counters)\n"
        assert codes(below, module="obs/insights.py") == []
        # ``repro.servers`` is not ``repro.server``.
        assert codes("import repro.servers\n_ = repro\n", module="obs/x.py") == []

    def test_the_serving_layers_import_each_other_freely(self):
        source = "from repro.service.stats import ServiceStats\n_ = ServiceStats\n"
        assert codes(source, module="cluster/stats.py") == []
        assert codes(source, module=None) == []


class TestOneAutomatonModel:
    """INV009: the engine and what serves it import no ``repro.automata``."""

    SPELLINGS = (
        "from repro.automata.nfa import NFA\n_ = NFA\n",
        "from repro.automata import NFA\n_ = NFA\n",
        "from repro import automata\n_ = automata\n",
        "import repro.automata.product\n_ = repro\n",
        "def candidates():\n"
        "    from repro.automata.product import pairs_and_distances\n"
        "    return pairs_and_distances\n",
    )

    def test_every_spelling_is_flagged_in_every_engine_side_package(self):
        for source in self.SPELLINGS:
            assert codes(source, module="gpc/engine.py") == ["INV009"]
        for package in ("extensions", "service", "cluster", "server", "obs"):
            assert codes(self.SPELLINGS[0], module=f"{package}/x.py") == ["INV009"]

    def test_the_baselines_and_the_translations_are_its_users(self):
        for module in ("baselines/rpq.py", "translate/rpq_to_gpc.py", "automata/regex.py"):
            assert codes(self.SPELLINGS[0], module=module) == []
        assert codes(self.SPELLINGS[0], module=None) == []

    def test_a_module_that_only_sounds_like_it_is_fine(self):
        source = "from repro.automata_notes import x\n_ = x\n"
        assert codes(source, module="gpc/engine.py") == []


class TestServingCoreInTheCallersThread:
    """INV010: the serving core imports no ``concurrent.futures``."""

    SPELLINGS = (
        "from concurrent.futures import ThreadPoolExecutor\n_ = ThreadPoolExecutor\n",
        "import concurrent.futures\n_ = concurrent\n",
        "from concurrent import futures\n_ = futures\n",
        "def pool():\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    return ThreadPoolExecutor\n",
    )

    def test_every_spelling_is_flagged_in_the_service_package(self):
        for source in self.SPELLINGS:
            assert codes(source, module="service/service.py") == ["INV010"]

    def test_the_server_may_pool(self):
        for module in ("server/app.py", "obs/trace.py"):
            assert codes(self.SPELLINGS[0], module=module) == []

    THREAD_POOLS = (
        "from concurrent.futures import ThreadPoolExecutor\n_ = ThreadPoolExecutor\n",
        "from concurrent.futures import Future, ThreadPoolExecutor\n"
        "_ = Future, ThreadPoolExecutor\n",
        "import concurrent.futures.thread\n_ = concurrent\n",
        "from concurrent.futures import thread\n_ = thread\n",
        "from concurrent.futures.thread import ThreadPoolExecutor\n"
        "_ = ThreadPoolExecutor\n",
        "def pool():\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
        "    return ThreadPoolExecutor\n",
    )

    def test_a_thread_pool_is_flagged_in_the_cluster_package(self):
        for source in self.THREAD_POOLS:
            assert codes(source, module="cluster/backends.py") == ["INV010"], source

    def test_the_cluster_may_pool_processes(self):
        for source in (
            "from concurrent.futures import Future, ProcessPoolExecutor\n"
            "_ = Future, ProcessPoolExecutor\n",
            "import concurrent.futures\n_ = concurrent\n",
        ):
            assert codes(source, module="cluster/backends.py") == [], source


class TestAnnotations:
    """INV006: every ``def`` of a module mypy.ini checks with
    ``disallow_untyped_defs`` annotates its parameters and return."""

    def test_each_missing_annotation_is_named(self):
        findings = lint_invariants.check_source(
            "def f(a, b: int, *args, c, **kwargs):\n    return b\n",
            "probe.py",
            typed=True,
        )
        assert [(f.code, f.message.split(";")[0]) for f in findings] == [
            ("INV006", "f() leaves a, c, *args, **kwargs, return unannotated")
        ]

    def test_a_fully_annotated_def_is_fine(self):
        source = (
            "def f(a: int, /, b: int = 1, *args: int, c: int,"
            " **kwargs: int) -> int:\n"
            "    return a\n"
            "async def g() -> None:\n"
            "    pass\n"
        )
        assert codes(source, typed=True) == []

    def test_only_a_methods_first_parameter_is_exempt(self):
        source = (
            "class C:\n"
            "    def m(self, x: int) -> int:\n"
            "        return x\n"
            "    @classmethod\n"
            "    def k(cls) -> None:\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def s(x) -> None:\n"
            "        pass\n"
            "def top(self) -> None:\n"
            "    pass\n"
        )
        assert codes(source, typed=True) == ["INV006", "INV006"]

    def test_init_may_imply_its_return_once_a_parameter_is_annotated(self):
        implied = (
            "class C:\n"
            "    def __init__(self, x: int):\n"
            "        self.x = x\n"
        )
        assert codes(implied, typed=True) == []
        bare = "class C:\n    def __init__(self):\n        pass\n"
        assert codes(bare, typed=True) == ["INV006"]

    def test_nested_and_async_defs_are_checked_and_lambdas_are_not(self):
        source = (
            "def outer() -> None:\n"
            "    def inner(x):\n"
            "        return x\n"
            "    key = lambda y: y\n"
            "    del key, inner\n"
            "async def g(x: int):\n"
            "    return x\n"
        )
        assert codes(source, typed=True) == ["INV006", "INV006"]

    def test_only_strict_modules_are_in_scope(self):
        assert codes("def f(x):\n    return x\n") == []

    def test_the_strict_modules_are_read_from_mypy_ini(self, tmp_path):
        config = tmp_path / "mypy.ini"
        config.write_text(
            "[mypy]\nmypy_path = src\n"
            "[mypy-repro.*]\nignore_errors = True\n"
            "[mypy-repro.a.b]\ndisallow_untyped_defs = True\n"
            "[mypy-repro.c]\ndisallow_untyped_defs = False\n"
            "[mypy-repro.d.*]\ndisallow_untyped_defs = True\n",
            encoding="utf-8",
        )
        strict = lint_invariants.strict_modules(config)
        assert strict == {"a/b.py", "a/b/__init__.py", "d/"}
        is_strict = lint_invariants._is_strict
        assert is_strict("a/b.py", strict) and is_strict("d/e/f.py", strict)
        assert not is_strict("c.py", strict) and not is_strict(None, strict)
        repo = lint_invariants.strict_modules(REPO_ROOT / "mypy.ini")
        for module in (
            "gpc/analysis.py", "lint.py", "gpc/register_nfa.py",
            "server/wire.py",
        ):
            assert is_strict(module, repo), module

    def test_main_reports_an_untyped_def_in_a_strict_module(
        self, tmp_path, monkeypatch, capsys
    ):
        library = tmp_path / "src" / "repro"
        library.mkdir(parents=True)
        (library / "typed.py").write_text(
            "def f(x):\n    return x\n", encoding="utf-8"
        )
        (library / "loose.py").write_text(
            "def f(x):\n    return x\n", encoding="utf-8"
        )
        (tmp_path / "mypy.ini").write_text(
            "[mypy-repro.typed]\ndisallow_untyped_defs = True\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(lint_invariants, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(lint_invariants, "SRC_ROOT", library)
        assert lint_invariants.main([str(library)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("src/repro/typed.py:1: INV006 f() leaves x, return")


class TestUnusedImports:
    def test_unused_import_flagged(self):
        assert codes("import os\nimport sys\nprint(sys.argv)\n") == ["INV004"]
        assert codes("from a import b, c\nc()\n") == ["INV004"]

    def test_each_binding_is_judged_by_the_name_it_binds(self):
        assert codes("import a.b\na.b.f()\n") == []
        # ``a`` (``b``) is bound by nothing there: F821 too.
        assert codes("import a.b as c\na.b.f()\n") == ["INV004", "INV012"]
        assert codes("from a import b as c\nb()\n") == ["INV004", "INV012"]
        assert codes("from a import b as c\nc()\n") == []

    def test_use_inside_a_function_counts(self):
        assert codes("import os\ndef f():\n    return os.sep\n") == []

    def test_all_names_are_exempt(self):
        assert codes("from a import b\n__all__ = ['b']\n") == []
        assert codes("from a import b\n__all__ = ['c']\n") == ["INV004"]

    def test_init_files_re_export(self):
        findings = lint_invariants.check_source(
            "from a import b\n", Path("pkg/__init__.py")
        )
        assert findings == []

    def test_string_annotations_count(self):
        guarded = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from a import B\n"
            "def f(x: 'B | None') -> 'list[B]':\n"
            "    return [x]\n"
        )
        assert codes(guarded) == []
        assert codes(guarded.replace("B | None", "int").replace("[B]", "")) == [
            "INV004"
        ]

    def test_future_and_star_imports_are_not_bindings(self):
        assert codes("from __future__ import annotations\nfrom a import *\n") == []

    def test_function_local_imports_are_out_of_scope(self):
        assert codes("def f():\n    import os\n") == []

    def test_guarded_module_level_imports_are_in_scope(self):
        source = "try:\n    import fast\nexcept ImportError:\n    fast = None\n"
        assert codes(source) == ["INV004"]
        assert codes(source + "print(fast)\n") == []

    def test_waiver_comment_suppresses(self):
        waived = "import plugin  # lint: allow-unused-import\n"
        assert codes(waived) == []
        multi = "from a import (\n    b,  # lint: allow-unused-import\n    c,\n)\n"
        assert [
            (f.code, f.line)
            for f in lint_invariants.check_source(multi, Path("probe.py"))
        ] == [("INV004", 3)]

    def test_imports_are_all_that_is_checked_outside_the_library(self):
        source = "import os\ndef f(x=[]):\n    assert x\n"
        assert codes(source) == ["INV004", "INV002", "INV003"]  # by line
        assert codes(source, library=False) == ["INV004"]


class TestUnusedLocals:
    """INV011: pyflakes' F841 as ruff applies it by default."""

    def test_each_binding_kind_ruff_reports_is_flagged(self):
        red = (
            "def f(y):\n"
            "    a = 1\n"
            "    b: int = 2\n"
            "    if (c := y):\n"
            "        pass\n"
            "    with open(y) as d:\n"
            "        pass\n"
            "    try:\n"
            "        pass\n"
            "    except ValueError as e:\n"
            "        pass\n"
            "    g = h = 3\n"
            "    return h\n"
        )
        findings = lint_invariants.check_source(red, Path("probe.py"), library=False)
        assert [(f.code, f.line) for f in findings] == [
            ("INV011", line) for line in (2, 3, 4, 6, 10, 12)
        ]
        assert "local 'a' is assigned to but never used" in findings[0].message

    def test_methods_nested_and_async_defs_are_scopes(self):
        assert codes("class A:\n    def m(self):\n        x = 1\n") == ["INV011"]
        assert codes("def f():\n    def g():\n        x = 1\n    return g\n") == ["INV011"]
        assert codes("async def f():\n    x = 1\n") == ["INV011"]

    def test_what_ruff_leaves_alone_is_fine(self):
        green = (
            "from __future__ import annotations\n"
            "X = 1\n"  # module and class scopes are not checked
            "class A:\n"
            "    y = 2\n"
            "def f(z):\n"
            "    a, b = z\n"  # tuple unpacking
            "    for i in z:\n"  # loop targets
            "        pass\n"
            "    _ignored = 3\n"  # dummy names
            "    count = 0\n"
            "    count += 1\n"  # an update reads it
            "    gone = 4\n"
            "    del gone\n"
            "    kind = int\n"
            "    typed: kind = 5\n"  # read by an annotation only
            "    cell = 6\n"
            "    def g():\n"
            "        return cell\n"  # read by a nested scope
            "    __tracebackhide__ = True\n"
            "    return typed, g\n"
            "def h():\n"
            "    global X\n"
            "    X = 7\n"
            "    seen = 8\n"
            "    return locals()\n"  # reads every name
        )
        assert codes(green, library=False) == []


class TestUndefinedNames:
    """INV012: pyflakes' F821, the globals a module reads and nothing
    binds."""

    def test_each_scope_and_annotations_are_read(self):
        red = (
            "import os\n"
            "def f(a):\n"
            "    return a + missing\n"
            "class A:\n"
            "    x = nope\n"
            "    def m(self) -> Undefined:\n"
            "        return [y for y in gone], os\n"
            "print(never_bound)\n"
        )
        findings = lint_invariants.check_source(red, Path("probe.py"), library=False)
        assert [(f.code, f.line) for f in findings] == [
            ("INV012", line) for line in (3, 5, 6, 7, 8)
        ]
        assert "undefined name 'missing' (F821)" in findings[0].message
        # Annotations that are never compiled, a string one included.
        lazy = (
            "from __future__ import annotations\n"
            "def f(a: Missing) -> 'AlsoMissing':\n"
            "    return a\n"
        )
        assert [
            (f.line, f.message)
            for f in lint_invariants.check_source(lazy, Path("probe.py"), library=False)
        ] == [
            (2, "undefined name 'AlsoMissing' (F821)"),
            (2, "undefined name 'Missing' (F821)"),
        ]

    def test_what_is_bound_somewhere_is_fine(self):
        green = (
            "from __future__ import annotations\n"
            "import typing\n"
            "if typing.TYPE_CHECKING:\n"
            "    from collections import OrderedDict\n"
            "def g():\n"
            "    global G\n"  # bound by a global assignment
            "    G = 1\n"
            "def top(self, sort):\n"  # symtable's module-scope name
            "    return self, sort, G, __file__, len\n"
            "class A:\n"
            "    q = __qualname__\n"
            "    def m(self) -> OrderedDict:\n"
            "        return __class__, later\n"  # bound after the def
            "def h(x: 'A') -> None:\n"
            "    def inner():\n"
            "        return x\n"  # a cell of the enclosing scope
            "    return inner\n"
            "later = 1\n"
        )
        assert codes(green, library=False) == []
        # A star import may bind anything: the module is not read.
        assert codes("from os import *\nprint(path)\n", library=False) == []


class TestMain:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(x=None):\n    return x\n", encoding="utf-8")
        assert lint_invariants.main([str(good)]) == 0
        assert capsys.readouterr().out == ""

    def test_seeded_violations_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def f(x=[]):\n"
            "    assert x\n"
            "    try:\n"
            "        pass\n"
            "    except Exception:\n"
            "        pass\n",
            encoding="utf-8",
        )
        assert lint_invariants.main([str(bad)]) == 1
        out = capsys.readouterr().out
        for code in ("INV001", "INV002", "INV003"):
            assert code in out

    def test_unparsable_file_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n", encoding="utf-8")
        assert lint_invariants.main([str(broken)]) == 2
        assert "broken.py" in capsys.readouterr().err

    def test_repo_tree_is_clean(self):
        # The invariant the CI job enforces: the committed tree lints
        # clean with default roots.
        assert lint_invariants.main([]) == 0

    def test_default_roots_cover_the_test_and_benchmark_trees(
        self, tmp_path, monkeypatch, capsys
    ):
        # A tree shaped like the repo: the library gets every check,
        # tests/ only the imports (asserting is what tests do).
        library = tmp_path / "src" / "repro"
        library.mkdir(parents=True)
        (library / "m.py").write_text("assert True\n", encoding="utf-8")
        for name in lint_invariants.IMPORT_ONLY_ROOTS:
            (tmp_path / name).mkdir()
        (tmp_path / "tests" / "test_m.py").write_text(
            "import os\nassert True\n", encoding="utf-8"
        )
        monkeypatch.setattr(lint_invariants, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(lint_invariants, "SRC_ROOT", library)
        assert lint_invariants.main([]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "src/repro/m.py:1: INV003 assert used for control flow vanishes "
            "under python -O; raise a typed repro.errors exception instead",
            "tests/test_m.py:1: INV004 unused import 'os'; remove it or "
            "waive with 'lint: allow-unused-import'",
        ]
