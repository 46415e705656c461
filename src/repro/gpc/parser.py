"""Concrete text syntax for GPC.

The paper presents GPC abstractly (Figure 1); this module gives it an
ASCII concrete syntax close to the paper's notation and to GQL:

.. code-block:: text

    query       :=  join_item (',' join_item)*
    join_item   :=  [NAME '='] restrictor pattern
    restrictor  :=  SHORTEST [SIMPLE | TRAIL] | SIMPLE | TRAIL
    pattern     :=  concat ('+' concat)*          -- union (lowest)
    concat      :=  postfixed+                    -- juxtaposition
    postfixed   :=  atom (repetition | condition)*   -- tightest
    atom        :=  node | edge | '[' pattern ']'
    node        :=  '(' [descriptor] ')'
    descriptor  :=  NAME [':' LABEL]  |  ':' LABEL
    edge        :=  '->' | '<-' | '~'
                 |  '-[' [descriptor] ']->'
                 |  '<-[' [descriptor] ']-'
                 |  '~[' [descriptor] ']~'
    repetition  :=  '*'  |  '{' [n] (',' | '..') [m] '}'  |  '{' n '}'
    condition   :=  '<<' boolean '>>'
    boolean     :=  disjunction of conjunctions of [NOT] comparisons
    comparison  :=  NAME '.' KEY '=' (constant | NAME '.' KEY)
    constant    :=  NUMBER | 'string' | "string" | TRUE | FALSE

Notes mirroring the paper:

- ``+`` is *union* (not Kleene plus; write ``{1,}`` for that);
- ``*`` abbreviates ``{0,}``, the Kleene star;
- square brackets group, exactly as in the paper's examples;
- conditioning ``<< ... >>`` renders the paper's angle brackets.

Example::

    parse_query("p = SHORTEST (x:A) -[e:knows]->{1,} (y:B) << x.k = y.k >>")
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Hashable

from repro.errors import ParseError
from repro.gpc import ast
from repro.gpc.conditions_ast import (
    And,
    Condition,
    Not,
    Or,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)

__all__ = [
    "MAX_NESTING_DEPTH",
    "parse_pattern",
    "parse_query",
    "parse_condition",
    "tokenize",
]

#: Deepest nesting the parser accepts: of brackets and of parenthesised
#: or negated conditions while it recurses, and of the expression tree
#: it returns (a 300-hop chain nests 600 concatenations without a
#: single bracket). A policy number for text from outside, not what
#: the passes can take: typing, analysis, planning and footprints go
#: through :func:`repro.gpc.ast.fold`, which takes a tree of any height,
#: but the parser, the register compiler and the evaluators recurse
#: with up to four interpreter frames per level, and from a server
#: worker thread those survive about 230 levels under the default
#: recursion limit.
MAX_NESTING_DEPTH = 100


class _T(enum.Enum):
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    PLUS = "+"
    STAR = "*"
    EQUALS = "="
    COLON = ":"
    DOT = "."
    RANGE = ".."
    ARROW_RIGHT = "->"
    ARROW_LEFT = "<-"
    TILDE = "~"
    EDGE_OPEN_RIGHT = "-["
    EDGE_CLOSE_RIGHT = "]->"
    EDGE_OPEN_LEFT = "<-["
    EDGE_CLOSE_LEFT = "]-"
    EDGE_OPEN_UND = "~["
    EDGE_CLOSE_UND = "]~"
    COND_OPEN = "<<"
    COND_CLOSE = ">>"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    EOF = "eof"


@dataclass(frozen=True)
class _Token:
    kind: _T
    text: str
    position: int

    @property
    def upper(self) -> str:
        return self.text.upper()


_FIXED = [
    ("]->", _T.EDGE_CLOSE_RIGHT),
    ("<-[", _T.EDGE_OPEN_LEFT),
    ("-[", _T.EDGE_OPEN_RIGHT),
    ("]-", _T.EDGE_CLOSE_LEFT),
    ("~[", _T.EDGE_OPEN_UND),
    ("]~", _T.EDGE_CLOSE_UND),
    ("<<", _T.COND_OPEN),
    (">>", _T.COND_CLOSE),
    ("->", _T.ARROW_RIGHT),
    ("<-", _T.ARROW_LEFT),
    ("..", _T.RANGE),
    ("(", _T.LPAREN),
    (")", _T.RPAREN),
    ("[", _T.LBRACKET),
    ("]", _T.RBRACKET),
    ("{", _T.LBRACE),
    ("}", _T.RBRACE),
    (",", _T.COMMA),
    ("+", _T.PLUS),
    ("*", _T.STAR),
    ("=", _T.EQUALS),
    (":", _T.COLON),
    (".", _T.DOT),
    ("~", _T.TILDE),
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"-?\d+(\.\d+)?")
_STRING_RE = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")


def tokenize(text: str) -> list[_Token]:
    """Tokenize GPC concrete syntax; raises :class:`ParseError` on
    unrecognized input."""
    tokens: list[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        string_match = _STRING_RE.match(text, pos)
        if string_match:
            tokens.append(_Token(_T.STRING, string_match.group(), pos))
            pos = string_match.end()
            continue
        number_match = _NUMBER_RE.match(text, pos)
        if number_match and (ch.isdigit() or ch == "-"):
            # '-' only starts a number when followed by a digit and not
            # part of an edge token (checked below by fixed-token order
            # priority: try fixed tokens first for '-').
            if ch == "-" and text[pos : pos + 2] in ("-[", "->"):
                pass  # fall through to fixed tokens
            else:
                tokens.append(_Token(_T.NUMBER, number_match.group(), pos))
                pos = number_match.end()
                continue
        for literal, kind in _FIXED:
            if text.startswith(literal, pos):
                tokens.append(_Token(kind, literal, pos))
                pos += len(literal)
                break
        else:
            ident_match = _IDENT_RE.match(text, pos)
            if ident_match:
                tokens.append(_Token(_T.IDENT, ident_match.group(), pos))
                pos = ident_match.end()
            else:
                raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token(_T.EOF, "", n))
    return tokens


_RESTRICTOR_KEYWORDS = {"SIMPLE", "TRAIL", "SHORTEST"}
_PATTERN_START = {
    _T.LPAREN,
    _T.LBRACKET,
    _T.ARROW_RIGHT,
    _T.ARROW_LEFT,
    _T.TILDE,
    _T.EDGE_OPEN_RIGHT,
    _T.EDGE_OPEN_LEFT,
    _T.EDGE_OPEN_UND,
}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.nesting = 0

    # -- token helpers ---------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: _T) -> _Token:
        if self.current.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {self.current.text!r}",
                self.current.position,
            )
        return self.advance()

    def at_keyword(self, *keywords: str) -> bool:
        return self.current.kind is _T.IDENT and self.current.upper in keywords

    def enter_nested(self) -> None:
        """Consume a token that opens one more level of recursion."""
        opening = self.advance()
        self.nesting += 1
        if self.nesting > MAX_NESTING_DEPTH:
            raise _too_deep(opening.position)

    # -- queries -----------------------------------------------------------

    def parse_query(self) -> ast.Query:
        items = [self._join_item()]
        while self.current.kind is _T.COMMA:
            self.advance()
            items.append(self._join_item())
        query: ast.Query = items[0]
        for item in items[1:]:
            query = ast.Join(query, item)
        return query

    def _join_item(self) -> ast.PatternQuery:
        name = None
        if (
            self.current.kind is _T.IDENT
            and self.current.upper not in _RESTRICTOR_KEYWORDS
            and self.tokens[self.index + 1].kind is _T.EQUALS
        ):
            name = self.advance().text
            self.advance()  # '='
        restrictor = self._restrictor()
        pattern = self.parse_pattern()
        return ast.PatternQuery(restrictor, pattern, name)

    def _restrictor(self) -> ast.Restrictor:
        if not self.at_keyword(*_RESTRICTOR_KEYWORDS):
            raise ParseError(
                f"expected a restrictor (SIMPLE, TRAIL or SHORTEST), found "
                f"{self.current.text!r}",
                self.current.position,
            )
        keyword = self.advance().upper
        if keyword == "SIMPLE":
            return ast.Restrictor.SIMPLE
        if keyword == "TRAIL":
            return ast.Restrictor.TRAIL
        if self.at_keyword("SIMPLE"):
            self.advance()
            return ast.Restrictor.SHORTEST_SIMPLE
        if self.at_keyword("TRAIL"):
            self.advance()
            return ast.Restrictor.SHORTEST_TRAIL
        return ast.Restrictor.SHORTEST

    # -- patterns ------------------------------------------------------------

    def parse_pattern(self) -> ast.Pattern:
        pattern = self._concat()
        while self.current.kind is _T.PLUS:
            self.advance()
            pattern = ast.Union(pattern, self._concat())
        return pattern

    def _concat(self) -> ast.Pattern:
        parts = [self._postfixed()]
        while self.current.kind in _PATTERN_START:
            parts.append(self._postfixed())
        pattern = parts[0]
        for part in parts[1:]:
            pattern = ast.Concat(pattern, part)
        return pattern

    def _postfixed(self) -> ast.Pattern:
        pattern = self._atom()
        while True:
            kind = self.current.kind
            if kind is _T.STAR:
                self.advance()
                pattern = ast.Repeat(pattern, 0, None)
            elif kind is _T.LBRACE:
                lower, upper = self._bounds()
                pattern = ast.Repeat(pattern, lower, upper)
            elif kind is _T.COND_OPEN:
                self.advance()
                condition = self._boolean()
                self.expect(_T.COND_CLOSE)
                pattern = ast.Conditioned(pattern, condition)
            else:
                return pattern

    def _bounds(self) -> tuple[int, int | None]:
        self.expect(_T.LBRACE)
        lower = 0
        upper: int | None = None
        if self.current.kind is _T.NUMBER:
            lower = self._int()
            if self.current.kind is _T.RBRACE:
                self.advance()
                return lower, lower
        if self.current.kind in (_T.COMMA, _T.RANGE):
            self.advance()
            if self.current.kind is _T.NUMBER:
                upper = self._int()
        else:
            raise ParseError(
                f"expected ',' or '..' in repetition bounds, found "
                f"{self.current.text!r}",
                self.current.position,
            )
        self.expect(_T.RBRACE)
        return lower, upper

    def _int(self) -> int:
        token = self.expect(_T.NUMBER)
        try:
            return int(token.text)
        except ValueError:
            raise ParseError(
                f"repetition bounds must be integers, found {token.text!r}",
                token.position,
            ) from None

    def _atom(self) -> ast.Pattern:
        kind = self.current.kind
        if kind is _T.LPAREN:
            return self._node_pattern()
        if kind is _T.LBRACKET:
            self.enter_nested()
            pattern = self.parse_pattern()
            self.nesting -= 1
            self.expect(_T.RBRACKET)
            return pattern
        if kind is _T.ARROW_RIGHT:
            self.advance()
            return ast.EdgePattern(ast.Direction.FORWARD)
        if kind is _T.ARROW_LEFT:
            self.advance()
            return ast.EdgePattern(ast.Direction.BACKWARD)
        if kind is _T.TILDE:
            self.advance()
            return ast.EdgePattern(ast.Direction.UNDIRECTED)
        if kind is _T.EDGE_OPEN_RIGHT:
            self.advance()
            descriptor = self._descriptor(_T.EDGE_CLOSE_RIGHT)
            self.expect(_T.EDGE_CLOSE_RIGHT)
            return ast.EdgePattern(ast.Direction.FORWARD, descriptor)
        if kind is _T.EDGE_OPEN_LEFT:
            self.advance()
            descriptor = self._descriptor(_T.EDGE_CLOSE_LEFT)
            self.expect(_T.EDGE_CLOSE_LEFT)
            return ast.EdgePattern(ast.Direction.BACKWARD, descriptor)
        if kind is _T.EDGE_OPEN_UND:
            self.advance()
            descriptor = self._descriptor(_T.EDGE_CLOSE_UND)
            self.expect(_T.EDGE_CLOSE_UND)
            return ast.EdgePattern(ast.Direction.UNDIRECTED, descriptor)
        raise ParseError(
            f"expected a pattern, found {self.current.text!r}",
            self.current.position,
        )

    def _node_pattern(self) -> ast.NodePattern:
        self.expect(_T.LPAREN)
        descriptor = self._descriptor(_T.RPAREN)
        self.expect(_T.RPAREN)
        return ast.NodePattern(descriptor)

    def _descriptor(self, closing: _T) -> ast.Descriptor:
        variable = None
        label = None
        if self.current.kind is _T.IDENT:
            variable = self.advance().text
        if self.current.kind is _T.COLON:
            self.advance()
            label = self.expect(_T.IDENT).text
        if self.current.kind is not closing:
            raise ParseError(
                f"invalid descriptor near {self.current.text!r}",
                self.current.position,
            )
        return ast.Descriptor(variable, label)

    # -- conditions -------------------------------------------------------

    def _boolean(self) -> Condition:
        condition = self._conjunction()
        while self.at_keyword("OR"):
            self.advance()
            condition = Or(condition, self._conjunction())
        return condition

    def _conjunction(self) -> Condition:
        condition = self._negation()
        while self.at_keyword("AND"):
            self.advance()
            condition = And(condition, self._negation())
        return condition

    def _negation(self) -> Condition:
        if self.at_keyword("NOT"):
            self.enter_nested()
            condition = Not(self._negation())
            self.nesting -= 1
            return condition
        if self.current.kind is _T.LPAREN:
            self.enter_nested()
            condition = self._boolean()
            self.nesting -= 1
            self.expect(_T.RPAREN)
            return condition
        return self._comparison()

    def _comparison(self) -> Condition:
        variable = self.expect(_T.IDENT).text
        self.expect(_T.DOT)
        key = self.expect(_T.IDENT).text
        self.expect(_T.EQUALS)
        if self.current.kind is _T.IDENT and not self.at_keyword("TRUE", "FALSE"):
            other_variable = self.advance().text
            self.expect(_T.DOT)
            other_key = self.expect(_T.IDENT).text
            return PropertyEqualsProperty(variable, key, other_variable, other_key)
        constant = self._constant()
        return PropertyEqualsConst(variable, key, constant)

    def _constant(self) -> Hashable:
        token = self.current
        if token.kind is _T.NUMBER:
            self.advance()
            if "." in token.text:
                return float(token.text)
            return int(token.text)
        if token.kind is _T.STRING:
            self.advance()
            body = token.text[1:-1]
            return re.sub(r"\\(.)", r"\1", body)
        if self.at_keyword("TRUE"):
            self.advance()
            return True
        if self.at_keyword("FALSE"):
            self.advance()
            return False
        raise ParseError(
            f"expected a constant, found {token.text!r}", token.position
        )

    # -- entry points --------------------------------------------------------

    def finish(self) -> None:
        if self.current.kind is not _T.EOF:
            raise ParseError(
                f"unexpected trailing input {self.current.text!r}",
                self.current.position,
            )


def _too_deep(position: int | None = None) -> ParseError:
    return ParseError(
        f"expression nests deeper than {MAX_NESTING_DEPTH} levels", position
    )


def _nested(node) -> tuple:
    """What nests directly inside ``node``, an expression or a
    condition."""
    if isinstance(node, (And, Or, Not)):
        return tuple(vars(node).values())
    if isinstance(node, (PropertyEqualsConst, PropertyEqualsProperty)):
        return ()
    if isinstance(node, ast.Conditioned):
        return ast.children(node) + (node.condition,)
    return ast.children(node)


def _parse(text: str, production):
    """Run one production of a fresh parser over the whole of ``text``
    and reject a tree higher than :data:`MAX_NESTING_DEPTH`. The loops
    that parse unions, concatenations, postfixes, joins and boolean
    connectives build left-deep spines without recursing, so the
    counter inside the parser does not see them."""
    parser = _Parser(tokenize(text))
    root = production(parser)
    parser.finish()
    # A tree has fewer levels than its text has tokens.
    if len(parser.tokens) > MAX_NESTING_DEPTH:
        stack = [(root, 1)]
        while stack:
            node, depth = stack.pop()
            inside = _nested(node)
            if inside and depth > MAX_NESTING_DEPTH:
                raise _too_deep()
            stack.extend((part, depth + 1) for part in inside)
    return root


def parse_pattern(text: str) -> ast.Pattern:
    """Parse a GPC pattern from concrete syntax."""
    return _parse(text, _Parser.parse_pattern)


def parse_query(text: str) -> ast.Query:
    """Parse a GPC query (restrictor required, joins with ``,``)."""
    return _parse(text, _Parser.parse_query)


def parse_condition(text: str) -> Condition:
    """Parse a bare condition (the part between ``<<`` and ``>>``)."""
    return _parse(text, _Parser._boolean)
