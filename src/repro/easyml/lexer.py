"""Tokenizer for the EasyML ionic-model markup language.

EasyML borrows C's expression syntax (the paper, §2.2: "Variable
assignments, if statements and the precedence of arithmetic operations
follow those of C/C++"), adds ``.markup(args)`` clauses attached to
declarations, ``group { ... }`` blocks, and the ``diff_``/``_init``
naming conventions handled later by the frontend.

:class:`Scan` is the one tokenizer: one regex pass that fills three flat
lists (kind, text, offset) and skips whitespace and comments inside the
same match.  A kind is a plain string: an operator's or keyword's own
spelling (``"+"``, ``"if"``; ``&&``, ``||`` and ``!`` scan as ``"and"``,
``"or"`` and ``"not"``) or ``IDENT`` / ``NUMBER`` / ``STRING`` /
``EOF``.  Line and column are worked out from the offset only where a
node or an error needs them.  :func:`tokenize` and :class:`Token` are a
view of the same scan.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import List, NamedTuple

from .errors import LexerError


class TokenKind(Enum):
    """A token's kind; its value is the kind string :class:`Scan` uses."""

    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    # punctuation / operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    CARET = "^"             # exponent in some model sources
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    DOT = "."
    ASSIGN = "="
    QUESTION = "?"
    COLON = ":"
    # comparisons / logic
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "and"
    OR = "or"
    NOT = "not"
    # keywords
    IF = "if"
    ELSE = "else"
    GROUP = "group"
    EOF = "EOF"


#: whitespace and comments, skipped inside the match of the token before
_TRIVIA = r"(?:[ \t\r\n]+|(?://|\#)[^\n]*|/\*.*?\*/)*"
# Group 1 is one lexeme, tried in this order: numbers (1, 1.5, .5, 1.,
# 1e-3, 2.5E+4, 1.e2) before ``.`` the operator, two-character operators
# before their prefixes, ``/*`` (a comment the trivia could not close)
# before ``/``.  Identifiers and numbers are ASCII.  A lone ``"`` and any
# character no token starts with match too, so that the scan never skips
# one: they are the errors.  The empty match at the end is EOF.
_TOKEN_RE = re.compile(r"""(
    (?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?
  | [A-Za-z_][A-Za-z0-9_]*
  | "[^"]*"
  | ==|!=|<=|>=|&&|\|\||/\*
  | [-+*/%^(){}\[\],;.=?:<>!"]
  | .
  | \Z
)""" + _TRIVIA, re.VERBOSE | re.DOTALL)
_LEADING_TRIVIA_RE = re.compile(_TRIVIA, re.DOTALL)

#: kind of a lexeme that spells its kind: operators, keywords, the errors
_SPELLED = {kind.value: kind.value for kind in TokenKind
            if kind.value not in ("IDENT", "NUMBER", "STRING", "EOF")}
_SPELLED.update({"&&": "and", "||": "or", "!": "not", "": "EOF",
                 "/*": "OPEN_COMMENT", '"': "OPEN_STRING"})
#: kind of any other lexeme, by its first character
_BY_FIRST = dict.fromkeys(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT")
_BY_FIRST.update(dict.fromkeys("0123456789.", "NUMBER"))
_BY_FIRST['"'] = "STRING"
_ERRORS = {"OPEN_COMMENT": "unterminated block comment",
           "OPEN_STRING": "unterminated string literal",
           "STRAY": "unexpected character {!r}"}


class Scan:
    """One source's tokens as parallel ``kinds`` / ``texts`` / ``offsets``
    lists, ending in EOF; a STRING's text keeps its quotes.  A
    :class:`LexerError` names the first lexeme that is not a token."""

    __slots__ = ("source", "filename", "kinds", "texts", "offsets",
                 "_mark", "_mark_line")

    def __init__(self, source: str, filename: str = "<model>"):
        self.source = source
        self.filename = filename
        matches = list(_TOKEN_RE.finditer(
            source, _LEADING_TRIVIA_RE.match(source).end()))
        self.texts = texts = [match[1] for match in matches]
        self.offsets = [match.start() for match in matches]
        spelled, by_first = _SPELLED.get, _BY_FIRST.get
        self.kinds = [spelled(text) or by_first(text[:1], "STRAY")
                      for text in texts]
        self._mark, self._mark_line = 0, 1
        if not _ERRORS.keys().isdisjoint(self.kinds):
            bad = next(i for i, kind in enumerate(self.kinds)
                       if kind in _ERRORS)
            raise LexerError(_ERRORS[self.kinds[bad]].format(texts[bad]),
                             *self.position(bad), filename)

    def line(self, index: int) -> int:
        """1-based line of token ``index``: counted on from the last
        asked-for token, so a walk in source order reads the text once."""
        offset = self.offsets[index]
        if offset < self._mark:
            self._mark, self._mark_line = 0, 1
        self._mark_line += self.source.count("\n", self._mark, offset)
        self._mark = offset
        return self._mark_line

    def position(self, index: int):
        """``(line, column)`` of token ``index``; a tab is one column."""
        offset = self.offsets[index]
        return (self.line(index),
                offset - self.source.rfind("\n", 0, offset))

    def value(self, index: int) -> str:
        """Token ``index``'s text as :class:`Token` has it (a string
        without its quotes)."""
        text = self.texts[index]
        return text[1:-1] if self.kinds[index] == "STRING" else text


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def number_value(self) -> float:
        if self.kind is not TokenKind.NUMBER:
            raise ValueError(f"token {self.text!r} is not a number")
        return float(self.text)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str, filename: str = "<model>") -> List[Token]:
    """Tokenize EasyML source (including the trailing EOF token)."""
    tokens = Scan(source, filename)
    return [Token(TokenKind(kind), tokens.value(i), *tokens.position(i))
            for i, kind in enumerate(tokens.kinds)]
