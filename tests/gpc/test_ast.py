"""AST construction, validation, and structural queries."""

import pytest

from repro.errors import GPCError
from repro.gpc import ast
from repro.gpc.conditions_ast import PropertyEqualsConst, PropertyEqualsProperty


class TestDescriptors:
    def test_empty_descriptor(self):
        d = ast.Descriptor()
        assert d.is_empty
        assert str(d) == ""

    def test_full_descriptor(self):
        d = ast.Descriptor("x", "A")
        assert str(d) == "x:A"

    def test_empty_string_variable_rejected(self):
        with pytest.raises(GPCError):
            ast.Descriptor(variable="")

    def test_empty_string_label_rejected(self):
        with pytest.raises(GPCError):
            ast.Descriptor(label="")


class TestConstructors:
    def test_node_helpers(self):
        assert ast.node().descriptor.is_empty
        assert ast.node("x").variable == "x"
        assert ast.node(label="A").label == "A"
        assert ast.node("x", "A") == ast.NodePattern(ast.Descriptor("x", "A"))

    def test_edge_helpers(self):
        assert ast.forward().direction is ast.Direction.FORWARD
        assert ast.backward("e").variable == "e"
        assert ast.undirected(label="b").label == "b"

    def test_concat_left_associates(self):
        a, b, c = ast.node("a"), ast.node("b"), ast.node("c")
        assert ast.concat(a, b, c) == ast.Concat(ast.Concat(a, b), c)

    def test_union_left_associates(self):
        a, b, c = ast.node("a"), ast.node("b"), ast.node("c")
        assert ast.union(a, b, c) == ast.Union(ast.Union(a, b), c)

    def test_empty_concat_rejected(self):
        with pytest.raises(GPCError):
            ast.concat()
        with pytest.raises(GPCError):
            ast.union()


class TestRepeat:
    def test_bounds_validated(self):
        with pytest.raises(GPCError):
            ast.Repeat(ast.forward(), -1, 2)
        with pytest.raises(GPCError):
            ast.Repeat(ast.forward(), 3, 2)

    def test_unbounded(self):
        r = ast.Repeat(ast.forward(), 0, None)
        assert r.is_unbounded

    def test_exact_bounds(self):
        r = ast.Repeat(ast.forward(), 2, 2)
        assert not r.is_unbounded


class TestRestrictor:
    def test_five_legal_forms(self):
        assert str(ast.Restrictor.SIMPLE) == "simple"
        assert str(ast.Restrictor.TRAIL) == "trail"
        assert str(ast.Restrictor.SHORTEST) == "shortest"
        assert str(ast.Restrictor.SHORTEST_SIMPLE) == "shortest simple"
        assert str(ast.Restrictor.SHORTEST_TRAIL) == "shortest trail"

    def test_empty_restrictor_rejected(self):
        with pytest.raises(GPCError):
            ast.Restrictor()

    def test_unknown_mode_rejected(self):
        with pytest.raises(GPCError):
            ast.Restrictor(mode="weird")


class TestVariables:
    def test_atomic(self):
        assert ast.variables(ast.node("x")) == frozenset({"x"})
        assert ast.variables(ast.node()) == frozenset()
        assert ast.variables(ast.forward("e")) == frozenset({"e"})

    def test_composites(self):
        pattern = ast.concat(
            ast.node("x"), ast.forward("e"), ast.node("y")
        )
        assert ast.variables(pattern) == frozenset({"x", "e", "y"})

    def test_condition_variables_included(self):
        pattern = ast.Conditioned(
            ast.node("x"), PropertyEqualsProperty("x", "a", "y", "b")
        )
        assert ast.variables(pattern) == frozenset({"x", "y"})

    def test_query_name_included(self):
        query = ast.PatternQuery(ast.Restrictor.TRAIL, ast.node("x"), name="p")
        assert ast.variables(query) == frozenset({"x", "p"})

    def test_join(self):
        q1 = ast.PatternQuery(ast.Restrictor.TRAIL, ast.node("x"))
        q2 = ast.PatternQuery(ast.Restrictor.SIMPLE, ast.node("y"))
        assert ast.variables(ast.Join(q1, q2)) == frozenset({"x", "y"})


class TestSubpatternsAndSize:
    def test_iter_subpatterns_counts(self):
        pattern = ast.Union(
            ast.Concat(ast.node(), ast.forward()),
            ast.Repeat(ast.node(), 0, 1),
        )
        subs = list(ast.iter_subpatterns(pattern))
        # Union, Concat, two leaf nodes, one edge, Repeat, Repeat body.
        assert len(subs) == 6
        assert pattern in subs

    def test_pattern_size_counts_bound_bits(self):
        small = ast.Repeat(ast.forward(), 1, 2)
        large = ast.Repeat(ast.forward(), 1, 2**20)
        assert ast.pattern_size(large) > ast.pattern_size(small)

    def test_pattern_size_monotone_in_structure(self):
        atom = ast.node()
        assert ast.pattern_size(ast.Concat(atom, atom)) > ast.pattern_size(atom)

    def test_condition_str_forms(self):
        c = PropertyEqualsConst("x", "a", 5)
        assert "x.a" in str(c)


class TestHashability:
    def test_patterns_are_hashable_and_comparable(self):
        a = ast.concat(ast.node("x"), ast.forward(), ast.node("y"))
        b = ast.concat(ast.node("x"), ast.forward(), ast.node("y"))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_patterns_differ(self):
        assert ast.node("x") != ast.node("y")
        assert ast.forward() != ast.backward()


# ---------------------------------------------------------------------------
# The one traversal: children / with_children / fold
# ---------------------------------------------------------------------------


def _one_of_each():
    """One expression per constructor of Figure 1, and an extension."""
    from repro.extensions import RestrictedSubpattern

    x, e, y = ast.node("x", "A"), ast.forward("e", "r"), ast.node("y")
    pattern = ast.Concat(ast.Concat(x, e), y)
    left = ast.PatternQuery(ast.Restrictor.SHORTEST, pattern, "p")
    right = ast.PatternQuery(ast.Restrictor.TRAIL, ast.Concat(y, ast.undirected()))
    return {
        ast.NodePattern: (x, ()),
        ast.EdgePattern: (e, ()),
        ast.Union: (ast.Union(x, y), (x, y)),
        ast.Concat: (pattern, (pattern.left, y)),
        ast.Conditioned: (
            ast.Conditioned(pattern, PropertyEqualsConst("x", "k", 1)),
            (pattern,),
        ),
        ast.Repeat: (ast.Repeat(e, 1, None), (e,)),
        ast.PatternQuery: (left, (pattern,)),
        ast.Join: (ast.Join(left, right), (left, right)),
        RestrictedSubpattern: (
            RestrictedSubpattern(ast.Restrictor.TRAIL, pattern),
            (pattern,),
        ),
    }


class TestChildren:
    @pytest.mark.parametrize("constructor", list(_one_of_each()))
    def test_round_trip(self, constructor):
        expression, expected = _one_of_each()[constructor]
        kids = ast.children(expression)
        assert len(kids) == len(expected)
        assert all(kid is want for kid, want in zip(kids, expected))
        # Nothing changed: the very same object, not an equal copy.
        assert ast.with_children(expression, kids) is expression
        assert ast.with_children(expression, list(kids)) is expression
        if not kids:
            return
        swapped = (ast.node("fresh"),) + kids[1:]
        rebuilt = ast.with_children(expression, swapped)
        assert type(rebuilt) is type(expression)
        assert rebuilt != expression
        assert all(
            kid is want for kid, want in zip(ast.children(rebuilt), swapped)
        )
        # Everything that is not a sub-expression is carried over.
        assert ast.with_children(rebuilt, kids) == expression

    def test_wrong_number_of_children_rejected(self):
        x = ast.node("x")
        with pytest.raises(GPCError):
            ast.with_children(ast.Union(x, x), (x,))
        with pytest.raises(GPCError):
            ast.with_children(x, (x,))

    def test_not_an_expression(self):
        with pytest.raises(TypeError):
            ast.children(PropertyEqualsConst("x", "k", 1))


class TestFold:
    @staticmethod
    def _trace(log):
        def step(node, results):
            log.append(node)
            return (type(node).__name__, *results)

        return step

    def test_children_before_parents_left_to_right(self):
        a, b, c = ast.node("a"), ast.forward("b"), ast.node("c")
        inner = ast.Concat(a, b)
        tree = ast.Union(inner, ast.Repeat(c, 0, 2))
        log = []
        result = ast.fold(tree, self._trace(log))
        assert [id(n) for n in log] == [
            id(n) for n in (a, b, inner, c, tree.right, tree)
        ]
        assert result == (
            "Union",
            ("Concat", ("NodePattern",), ("EdgePattern",)),
            ("Repeat", ("NodePattern",)),
        )

    def test_queries_joins_and_extensions_are_nodes_like_any_other(self):
        join = _one_of_each()[ast.Join][0]
        log = []
        ast.fold(join, self._trace(log))
        assert log[-1] is join
        assert {type(n) for n in log} >= {ast.Join, ast.PatternQuery, ast.Concat}
        extension = next(reversed(_one_of_each().values()))[0]
        log.clear()
        ast.fold(extension, self._trace(log))
        assert log[-1] is extension and log[-2] is extension.pattern

    def test_a_shared_subtree_is_stepped_once(self):
        shared = ast.Concat(ast.node("x"), ast.forward())
        tree = ast.Union(ast.Concat(shared, shared), shared)
        log = []
        result = ast.fold(tree, self._trace(log))
        assert len(log) == len({id(n) for n in log}) == 5
        assert result[1][1] is result[1][2] is result[2]

    def test_the_first_failing_node_in_order_raises(self):
        a, b = ast.node("a"), ast.node("b")

        def step(node, results):
            if node in (a, b):
                raise KeyError(node.variable)
            return None

        with pytest.raises(KeyError, match="a"):
            ast.fold(ast.Concat(ast.Repeat(a, 1, 1), b), step)

    def test_below_the_native_levels_the_walk_is_the_same(self, monkeypatch):
        # fold recurses natively through its first levels and keeps an
        # explicit stack below them: same order, same memo, same result
        # wherever the switch falls.
        shared = ast.Concat(ast.node("x"), ast.forward())
        trees = [tree for tree, _ in _one_of_each().values()]
        trees.append(ast.Union(ast.Concat(shared, shared), shared))

        def walk(tree):
            log = []
            return ast.fold(tree, self._trace(log)), [id(n) for n in log]

        expected = [walk(tree) for tree in trees]
        for levels in (0, 1, 2):
            monkeypatch.setattr(ast, "_NATIVE_LEVELS", levels)
            assert [walk(tree) for tree in trees] == expected

    def test_height_is_not_bounded_by_the_recursion_limit(self):
        # Left-deep, 5000 factors, one shared leaf: every fact below
        # was a RecursionError while each pass recursed on its own.
        from repro.gpc.minlength import max_path_length, min_path_length
        from repro.gpc.typing import infer_schema

        hop = ast.forward("e")
        chain = ast.concat(*[hop] * 5000)
        assert min_path_length(chain) == max_path_length(chain) == 5000
        assert infer_schema(chain) == infer_schema(hop)
        assert ast.variables(chain) == {"e"}
        assert ast.pattern_size(chain) == 2 * 5000 - 1
        star = ast.Repeat(chain, 0, None)
        assert (min_path_length(star), max_path_length(star)) == (0, None)
        calls = []
        ast.fold(chain, lambda node, results: calls.append(node))
        assert len(calls) == 5000  # 4999 concatenations and the leaf
