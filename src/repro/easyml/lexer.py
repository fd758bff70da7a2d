"""Tokenizer for the EasyML ionic-model markup language.

EasyML borrows C's expression syntax (the paper, §2.2: "Variable
assignments, if statements and the precedence of arithmetic operations
follow those of C/C++"), adds ``.markup(args)`` clauses attached to
declarations, ``group { ... }`` blocks, and the ``diff_``/``_init``
naming conventions handled later by the frontend.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import Iterator, List, NamedTuple

from .errors import LexerError


class TokenKind(Enum):
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    # punctuation / operators
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    CARET = auto()          # exponent in some model sources
    LPAREN = auto()
    RPAREN = auto()
    LBRACE = auto()
    RBRACE = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    COMMA = auto()
    SEMI = auto()
    DOT = auto()
    ASSIGN = auto()
    QUESTION = auto()
    COLON = auto()
    # comparisons / logic
    EQ = auto()
    NE = auto()
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    AND = auto()
    OR = auto()
    NOT = auto()
    # keywords
    IF = auto()
    ELSE = auto()
    GROUP = auto()
    EOF = auto()


KEYWORDS = {
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "group": TokenKind.GROUP,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
}

_OPERATORS = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "^": TokenKind.CARET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "?": TokenKind.QUESTION,
    ":": TokenKind.COLON,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
}

# One alternative per lexeme class, tried in this order at every offset:
# numbers (1, 1.5, .5, 1., 1e-3, 2.5E+4, 1.e2) before ``.`` the operator,
# comments before ``/``, two-character operators before their prefixes.
# An opener whose closer never comes and a character no token starts with
# match too, so that the scan never skips one: they are the errors.
_MASTER_RE = re.compile(r"""
    (?P<SPACE>[ \t\r\n]+)
  | (?P<LINE_COMMENT>(?://|\#)[^\n]*)
  | (?P<BLOCK_COMMENT>/\*.*?\*/)
  | (?P<OPEN_COMMENT>/\*)
  | (?P<NUMBER>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_]\w*)
  | (?P<STRING>"[^"]*")
  | (?P<OPEN_STRING>")
  | (?P<OPERATOR>==|!=|<=|>=|&&|\|\||[-+*/%^(){}\[\],;.=?:<>!])
  | (?P<STRAY>.)
""", re.VERBOSE | re.DOTALL)
#: the lexeme classes that can span lines
_MULTILINE = frozenset({"SPACE", "BLOCK_COMMENT", "STRING"})
_ERRORS = {"OPEN_COMMENT": "unterminated block comment",
           "OPEN_STRING": "unterminated string literal",
           "STRAY": "unexpected character {!r}"}


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


class Lexer:
    """Single-pass tokenizer with C, C++ and shell comment support."""

    def __init__(self, source: str, filename: str = "<model>"):
        self.source = source
        self.filename = filename

    def tokens(self) -> Iterator[Token]:
        line, line_start = 1, 0
        for match in _MASTER_RE.finditer(self.source):
            group, text = match.lastgroup, match.group()
            column = match.start() - line_start + 1
            if group == "IDENT":
                yield Token(KEYWORDS.get(text, TokenKind.IDENT), text,
                            line, column)
            elif group == "OPERATOR":
                yield Token(_OPERATORS[text], text, line, column)
            elif group == "NUMBER":
                yield Token(TokenKind.NUMBER, text, line, column)
            elif group == "STRING":
                yield Token(TokenKind.STRING, text[1:-1], line, column)
            elif group in _ERRORS:
                raise LexerError(_ERRORS[group].format(text), line, column,
                                 self.filename)
            if group in _MULTILINE and "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rfind("\n") + 1
        yield Token(TokenKind.EOF, "", line,
                    len(self.source) - line_start + 1)


def tokenize(source: str, filename: str = "<model>") -> List[Token]:
    """Tokenize EasyML source (including the trailing EOF token)."""
    return list(Lexer(source, filename).tokens())
