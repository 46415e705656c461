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
- conditioning ``<< ... >>`` renders the paper's angle brackets;
- NUMBER is ASCII, ``-?[0-9]+(.[0-9]+)?``;
- :func:`query_shape` and :func:`parse_shape` lift every constant into
  a parameter slot, so texts that differ only in constants share one
  shape.

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
    Param,
    PropertyEqualsConst,
    PropertyEqualsProperty,
)

__all__ = [
    "MAX_NESTING_DEPTH",
    "parse_pattern",
    "parse_query",
    "parse_condition",
    "parse_shape",
    "query_shape",
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


_KINDS = {kind.value: kind for kind in _T}

#: One token after optional whitespace. The alternatives are tried in
#: order (a string, a number, a fixed token — longest spellings first —
#: an identifier), ``eof`` ends the text and ``bad`` is any other
#: character. Digits are ASCII: the grammar's NUMBER is ``[0-9]``.
_TOKEN_RE = re.compile(
    r"""\s*(?:
      (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
    | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
    | (?P<fixed>\]->|<-\[|-\[|\]-|~\[|\]~|<<|>>|->|<-|\.\.|[()\[\]{},+*=:.~])
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<eof>\Z)
    | (?P<bad>.)
    )""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[_Token]:
    """Tokenize GPC concrete syntax; raises :class:`ParseError` on
    unrecognized input."""
    tokens: list[_Token] = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup or "bad"
        token, position = match.group(group), match.start(group)
        if group == "bad":
            raise ParseError(f"unexpected character {token!r}", position)
        kind = _KINDS.get(group) or _KINDS[token]
        tokens.append(_Token(kind, token, position))
        if group == "eof":
            break
    return tokens


def _literal(kind: _T, text: str) -> Hashable:
    """The constant a NUMBER, STRING or ``TRUE`` / ``FALSE`` token spells."""
    if kind is _T.NUMBER:
        return float(text) if "." in text else int(text)
    if kind is _T.STRING:
        body = text[1:-1]
        return re.sub(r"\\(.)", r"\1", body) if "\\" in body else body
    return text.upper() == "TRUE"


def _shape(text: str) -> tuple[tuple, tuple, dict]:
    """The shape key of ``text``, its parameter values and, per lifted
    token index, its slot. A literal directly after ``=`` is lifted;
    literals that are ``==`` share a slot, whose value is the first of
    them. Reads the tokens' texts off one ``findall`` of the scan."""
    key: list = []
    classes: dict = {}
    slots: dict[int, int] = {}
    equals = False
    for index, (string, number, fixed, ident, _eof, bad) in enumerate(
        _TOKEN_RE.findall(text)
    ):
        if bad:
            tokenize(text)  # raises the scan's error, at its position
        if equals and (string or number or ident.upper() in ("TRUE", "FALSE")):
            kind = _T.STRING if string else _T.NUMBER if number else _T.IDENT
            literal = _literal(kind, string or number or ident)
            slot = slots[index] = classes.setdefault(literal, len(classes))
            key.append((kind.value, slot))
        else:
            key.append(string or number or fixed or ident)
        equals = fixed == "="
    return tuple(key), tuple(classes), slots


def query_shape(text: str) -> tuple[tuple, tuple]:
    """``(key, values)``: ``text``'s tokens with every constant lifted
    out, and the constants, one per equality class in order of first
    appearance. Texts with equal keys parse to the same query over
    :class:`~repro.gpc.conditions_ast.Param` slots (:func:`parse_shape`)."""
    key, values, _slots = _shape(text)
    return key, values


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
    def __init__(self, tokens: list[_Token], slots: dict[int, int] | None = None):
        self.tokens = tokens
        self.index = 0
        self.nesting = 0
        #: Token index -> parameter slot of each lifted constant.
        self.slots = slots or {}

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
        if token.kind in (_T.NUMBER, _T.STRING) or self.at_keyword("TRUE", "FALSE"):
            slot = self.slots.get(self.index)
            self.advance()
            return _literal(token.kind, token.text) if slot is None else Param(slot)
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


def _parse(text: str, production, slots: dict[int, int] | None = None):
    """Run one production of a fresh parser over the whole of ``text``
    (lifting the constants at ``slots``) and reject a tree higher than
    :data:`MAX_NESTING_DEPTH`. The loops that parse unions,
    concatenations, postfixes, joins and boolean connectives build
    left-deep spines without recursing, so the counter inside the
    parser does not see them."""
    parser = _Parser(tokenize(text), slots)
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


def parse_shape(text: str) -> tuple[ast.Query, tuple]:
    """Parse a query with its constants lifted (:func:`query_shape`):
    the query over :class:`~repro.gpc.conditions_ast.Param` slots and
    the values they bind in ``text``. Errors are :func:`parse_query`'s."""
    _key, values, slots = _shape(text)
    return _parse(text, _Parser.parse_query, slots), values
