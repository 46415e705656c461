"""Concrete syntax: the lexer and recursive-descent parser."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.gpc import ast
from repro.gpc.conditions_ast import (
    And,
    Not,
    Or,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)
from repro.gpc.parser import (
    MAX_NESTING_DEPTH,
    parse_condition,
    parse_pattern,
    parse_query,
    tokenize,
)


class TestNodePatterns:
    def test_anonymous(self):
        assert parse_pattern("()") == ast.node()

    def test_variable_only(self):
        assert parse_pattern("(x)") == ast.node("x")

    def test_label_only(self):
        assert parse_pattern("(:Person)") == ast.node(label="Person")

    def test_both(self):
        assert parse_pattern("(x:Person)") == ast.node("x", "Person")

    def test_whitespace_tolerated(self):
        assert parse_pattern("(  x : Person )") == ast.node("x", "Person")


class TestEdgePatterns:
    def test_bare_arrows(self):
        assert parse_pattern("->") == ast.forward()
        assert parse_pattern("<-") == ast.backward()
        assert parse_pattern("~") == ast.undirected()

    def test_bracketed_forward(self):
        assert parse_pattern("-[e:knows]->") == ast.forward("e", "knows")
        assert parse_pattern("-[e]->") == ast.forward("e")
        assert parse_pattern("-[:knows]->") == ast.forward(label="knows")
        assert parse_pattern("-[]->") == ast.forward()

    def test_bracketed_backward(self):
        assert parse_pattern("<-[e:knows]-") == ast.backward("e", "knows")

    def test_bracketed_undirected(self):
        assert parse_pattern("~[e:knows]~") == ast.undirected("e", "knows")


class TestOperators:
    def test_concatenation(self):
        assert parse_pattern("(x) -> (y)") == ast.concat(
            ast.node("x"), ast.forward(), ast.node("y")
        )

    def test_union_lowest_precedence(self):
        parsed = parse_pattern("(x) -> (y) + (z)")
        assert isinstance(parsed, ast.Union)
        assert parsed.right == ast.node("z")

    def test_union_left_associates(self):
        parsed = parse_pattern("(a) + (b) + (c)")
        assert parsed == ast.Union(
            ast.Union(ast.node("a"), ast.node("b")), ast.node("c")
        )

    def test_brackets_group(self):
        parsed = parse_pattern("[(a) + (b)] (c)")
        assert isinstance(parsed, ast.Concat)
        assert isinstance(parsed.left, ast.Union)

    def test_paper_precedence_example(self):
        # pi pi'<theta> + pi'' == [pi [pi'<theta>]] + pi''
        parsed = parse_pattern("(a) (b) << b.k = 1 >> + (c)")
        assert isinstance(parsed, ast.Union)
        concat = parsed.left
        assert isinstance(concat, ast.Concat)
        assert isinstance(concat.right, ast.Conditioned)


class TestRepetition:
    def test_star(self):
        assert parse_pattern("->*") == ast.Repeat(ast.forward(), 0, None)

    def test_range(self):
        assert parse_pattern("->{2,5}") == ast.Repeat(ast.forward(), 2, 5)

    def test_range_dotdot(self):
        assert parse_pattern("->{2..5}") == ast.Repeat(ast.forward(), 2, 5)

    def test_exact(self):
        assert parse_pattern("->{3}") == ast.Repeat(ast.forward(), 3, 3)

    def test_lower_only(self):
        assert parse_pattern("->{2,}") == ast.Repeat(ast.forward(), 2, None)

    def test_upper_only(self):
        assert parse_pattern("->{,4}") == ast.Repeat(ast.forward(), 0, 4)

    def test_nested_repetition(self):
        parsed = parse_pattern("[->{1,2}]{3,4}")
        assert parsed == ast.Repeat(ast.Repeat(ast.forward(), 1, 2), 3, 4)

    def test_postfix_chains(self):
        parsed = parse_pattern("(x)*{1,2}")
        assert parsed == ast.Repeat(ast.Repeat(ast.node("x"), 0, None), 1, 2)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(Exception):
            parse_pattern("->{5,2}")


class TestConditions:
    def test_const_comparison(self):
        parsed = parse_pattern("(x) << x.age = 42 >>")
        assert parsed == ast.Conditioned(
            ast.node("x"), PropertyEqualsConst("x", "age", 42)
        )

    def test_string_constant(self):
        parsed = parse_condition("x.name = 'Ann'")
        assert parsed == PropertyEqualsConst("x", "name", "Ann")

    def test_double_quoted_string(self):
        assert parse_condition('x.name = "Bo"') == PropertyEqualsConst(
            "x", "name", "Bo"
        )

    def test_escaped_quote(self):
        assert parse_condition(r"x.name = 'O\'Hara'") == PropertyEqualsConst(
            "x", "name", "O'Hara"
        )

    def test_float_and_negative(self):
        assert parse_condition("x.v = 1.5") == PropertyEqualsConst("x", "v", 1.5)
        assert parse_condition("x.v = -3") == PropertyEqualsConst("x", "v", -3)

    def test_booleans(self):
        assert parse_condition("x.f = TRUE") == PropertyEqualsConst("x", "f", True)
        assert parse_condition("x.f = false") == PropertyEqualsConst("x", "f", False)

    def test_property_comparison(self):
        assert parse_condition("x.a = y.b") == PropertyEqualsProperty(
            "x", "a", "y", "b"
        )

    def test_boolean_structure(self):
        parsed = parse_condition("x.a = 1 AND x.b = 2 OR NOT x.c = 3")
        # AND binds tighter than OR.
        assert isinstance(parsed, Or)
        assert isinstance(parsed.left, And)
        assert isinstance(parsed.right, Not)

    def test_parentheses(self):
        parsed = parse_condition("x.a = 1 AND (x.b = 2 OR x.c = 3)")
        assert isinstance(parsed, And)
        assert isinstance(parsed.right, Or)

    def test_keywords_case_insensitive(self):
        parsed = parse_condition("x.a = 1 and x.b = 2")
        assert isinstance(parsed, And)


class TestQueries:
    def test_restrictor_required(self):
        with pytest.raises(ParseError):
            parse_query("(x) -> (y)")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("SIMPLE (x)", ast.Restrictor.SIMPLE),
            ("TRAIL (x)", ast.Restrictor.TRAIL),
            ("SHORTEST (x)", ast.Restrictor.SHORTEST),
            ("SHORTEST SIMPLE (x)", ast.Restrictor.SHORTEST_SIMPLE),
            ("shortest trail (x)", ast.Restrictor.SHORTEST_TRAIL),
        ],
    )
    def test_restrictors(self, text, expected):
        query = parse_query(text)
        assert isinstance(query, ast.PatternQuery)
        assert query.restrictor == expected

    def test_named_query(self):
        query = parse_query("p = TRAIL (x) -> (y)")
        assert query.name == "p"

    def test_join(self):
        query = parse_query("TRAIL (x) -> (y), SIMPLE (y) -> (z)")
        assert isinstance(query, ast.Join)
        assert isinstance(query.left, ast.PatternQuery)
        assert isinstance(query.right, ast.PatternQuery)

    def test_three_way_join_left_associates(self):
        query = parse_query("TRAIL (x), TRAIL (y), TRAIL (z)")
        assert isinstance(query, ast.Join)
        assert isinstance(query.left, ast.Join)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            "(x",
            "(x:)",
            "(:)",
            "->{",
            "->{a}",
            "(x) <<",
            "(x) << x.a >>",
            "(x) << x = 1 >>",
            "(x))",
            "[(x)",
            "(x) @ (y)",
            "-[x:]->",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_pattern(text)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_pattern("(x) @")
        assert exc.value.position is not None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("TRAIL (x) extra_tokens =")


def _nested(depth):
    """Texts that nest ``depth`` levels, one per way of nesting."""
    ands = " AND ".join(f"x.k{i} = 1" for i in range(depth - 1))
    return {
        "brackets": "SHORTEST " + "[" * depth + "(x)" + "]" * depth,
        "concat": "SHORTEST (x)" + " -> ()" * ((depth - 1) // 2),
        "union": "SHORTEST (x)" + " + (x)" * (depth - 2),
        "repeat": "SHORTEST (x) ->" + "{1,1}" * (depth - 2),
        "conditioned": "SHORTEST (x)" + " << x.k = 1 >>" * (depth - 1),
        "and": f"SHORTEST (x) << {ands} >>",
        "not": "SHORTEST (x) << " + "NOT " * (depth - 2) + "x.k = 1 >>",
        "parens": "SHORTEST (x) << " + "(" * depth + "x.k = 1" + ")" * depth + " >>",
        "join": ", ".join(["TRAIL (x)"] * depth),
    }


class TestNestingGuard:
    """Hostile nesting is a ``ParseError`` at the door, not a
    ``RecursionError`` somewhere behind it."""

    HOSTILE = [
        "SHORTEST " + "[" * 1000 + "(x)" + "]" * 1000,
        "SHORTEST (x)" + " -> ()" * 300,
    ]

    @pytest.mark.parametrize("text", HOSTILE + list(_nested(400).values()))
    def test_too_deep_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nests deeper"):
            parse_query(text)

    def test_bare_patterns_and_conditions_are_guarded_too(self):
        with pytest.raises(ParseError):
            parse_pattern("[" * 1000 + "(x)" + "]" * 1000)
        with pytest.raises(ParseError):
            parse_condition("NOT " * 1000 + "x.k = 1")

    @pytest.mark.parametrize("shape", sorted(_nested(3)))
    def test_the_limit_itself_survives_the_prepare_pipeline(self, shape):
        import threading

        from repro.service.prepared import PreparedQuery

        text = _nested(MAX_NESTING_DEPTH)[shape]
        with pytest.raises(ParseError):
            parse_query(_nested(MAX_NESTING_DEPTH + 2)[shape])
        outcome = []

        def prepare():
            # A thread starts from a shallow stack, as a server worker
            # does; pytest's own frames would eat into the margin.
            try:
                prepared = PreparedQuery(text)
                prepared.plan.precompile(prepared.query)
                prepared.footprint
                outcome.append(prepared.plan.explain(prepared.query))
            except BaseException as error:  # noqa: BLE001 - reported below
                outcome.append(error)

        worker = threading.Thread(target=prepare)
        worker.start()
        worker.join(timeout=60)
        assert isinstance(outcome[0], str), outcome[0]


class TestTokenizer:
    def test_edge_tokens_disambiguated(self):
        kinds = [t.kind.value for t in tokenize("-[x]-> <-[y]- ~[z]~")]
        assert "-[" in kinds and "]->" in kinds
        assert "<-[" in kinds and "]-" in kinds
        assert "~[" in kinds and "]~" in kinds

    def test_condition_brackets_vs_arrows(self):
        kinds = [t.kind.value for t in tokenize("-> << >> <-")]
        assert kinds[:4] == ["->", "<<", ">>", "<-"]

    def test_negative_number_vs_edge(self):
        tokens = tokenize("x.a = -5")
        assert tokens[-2].kind.value == "number"
        assert tokens[-2].text == "-5"


class TestNonAsciiDigits:
    """The grammar's NUMBER is ASCII: another script's digit is not a
    number, in repetition bounds or in a constant."""

    def test_in_bounds(self):
        text = "TRAIL (x) -[e]->{\u0661,} (y)"
        with pytest.raises(ParseError) as raised:
            parse_query(text)
        assert raised.value.position == text.index("\u0661")

    def test_in_a_constant(self):
        text = "TRAIL (x) -[e]-> (y) << e.m = \u0663 >>"
        with pytest.raises(ParseError) as raised:
            parse_query(text)
        assert raised.value.position == text.index("\u0663")


# The character-loop lexer the regex scan replaced, kept as an oracle.
_ORACLE_FIXED = [
    "]->", "<-[", "-[", "]-", "~[", "]~", "<<", ">>", "->", "<-", "..",
    "(", ")", "[", "]", "{", "}", ",", "+", "*", "=", ":", ".", "~",
]
_ORACLE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ORACLE_NUMBER = re.compile(r"-?\d+(\.\d+)?")
_ORACLE_STRING = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")


def _oracle_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        string_match = _ORACLE_STRING.match(text, pos)
        if string_match:
            tokens.append(("string", string_match.group(), pos))
            pos = string_match.end()
            continue
        number_match = _ORACLE_NUMBER.match(text, pos)
        if number_match and (ch.isdigit() or ch == "-"):
            if ch == "-" and text[pos : pos + 2] in ("-[", "->"):
                pass
            else:
                tokens.append(("number", number_match.group(), pos))
                pos = number_match.end()
                continue
        for literal in _ORACLE_FIXED:
            if text.startswith(literal, pos):
                tokens.append((literal, literal, pos))
                pos += len(literal)
                break
        else:
            ident_match = _ORACLE_IDENT.match(text, pos)
            if ident_match:
                tokens.append(("ident", ident_match.group(), pos))
                pos = ident_match.end()
            else:
                raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("eof", "", n))
    return tokens


def _lexed(lex, text):
    try:
        return [
            token if isinstance(token, tuple) else (token.kind.value, token.text, token.position)
            for token in lex(text)
        ]
    except ParseError as error:
        return (str(error), error.position)


#: GPC's alphabet, with one non-ASCII digit.
_ALPHABET = " \t\n0123456789-[]<>~.,{}()*+=:'\"\\abkxyzTRUEAND_\u0661"


class TestLexerOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=_ALPHABET, max_size=24))
    def test_same_tokens_or_error(self, text):
        got = _lexed(tokenize, text)
        # The one difference: the old lexer read a non-ASCII digit as a
        # digit; now it is an unexpected character, as '#' is to both.
        expected = _lexed(_oracle_tokenize, text.replace("\u0661", "#"))
        assert repr(got).replace("\u0661", "#") == repr(expected)
