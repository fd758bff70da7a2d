"""Recursive-descent parser for EasyML.

The grammar (paper §2.2 plus the openCARP EasyML reference):

.. code-block:: text

    model      := stmt*
    stmt       := group | if | simple
    group      := 'group' '{' member* '}' markup* ';'
    member     := IDENT ('=' expr)? ';'
    if         := 'if' '(' expr ')' block ('else' (block | if))?
    block      := '{' stmt* '}' | stmt
    simple     := IDENT ('=' expr)? ';' trailing_markup*
    trailing_markup := '.' IDENT '(' markup_args? ')' ';'
    expr       := C expression syntax incl. '?:', comparisons, calls

A trailing markup clause attaches to the immediately preceding
declaration/assignment, matching usage like
``Vm; .external(); .nodal(); .lookup(-100,100,0.05);``.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple, Union

from .ast_nodes import (Assign, Binary, Call, Declare, Expr, Group, If,
                        Markup, ModelAST, Name, Number, Stmt, Ternary, Unary)
from .errors import SyntaxErrorEasyML
from .lexer import Token, TokenKind, tokenize


#: binary operators, all left-associative: kind -> (precedence, spelling)
_BINARY = {
    TokenKind.OR: (1, "or"),
    TokenKind.AND: (2, "and"),
    TokenKind.EQ: (3, "=="), TokenKind.NE: (3, "!="),
    TokenKind.LT: (4, "<"), TokenKind.LE: (4, "<="),
    TokenKind.GT: (4, ">"), TokenKind.GE: (4, ">="),
    TokenKind.PLUS: (5, "+"), TokenKind.MINUS: (5, "-"),
    TokenKind.STAR: (6, "*"), TokenKind.SLASH: (6, "/"),
    TokenKind.PERCENT: (6, "%"),
}
_NONE = (0, "")
#: prefix operators: kind -> spelling (unary plus leaves no node)
_PREFIX = {TokenKind.MINUS: "-", TokenKind.PLUS: "", TokenKind.NOT: "!"}


class Parser:
    def __init__(self, source: str, name: str = "model",
                 filename: str = "<model>"):
        self.tokens = tokenize(source, filename)
        self.pos = 0
        self.source_digest = hashlib.sha256(source.encode()).hexdigest()
        self.name = name
        self.filename = filename

    # -- token helpers ---------------------------------------------------------

    def _next(self) -> Token:
        """Consume one token; the trailing EOF is never stepped past."""
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self.tokens[self.pos].kind is kind

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self.tokens[self.pos].kind is kind:
            return self._next()
        return None

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        token = self.tokens[self.pos]
        if token.kind is not kind:
            wanted = what or kind.name
            raise SyntaxErrorEasyML(
                f"expected {wanted}, got {token.text!r}",
                token.line, token.column, self.filename)
        return self._next()

    # -- entry ------------------------------------------------------------------

    def parse_model(self) -> ModelAST:
        statements: List[Stmt] = []
        while not self._check(TokenKind.EOF):
            statements.append(self.parse_stmt())
        return ModelAST(self.name, tuple(statements), self.source_digest)

    # -- statements ----------------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        if self._check(TokenKind.GROUP):
            return self.parse_group()
        if self._check(TokenKind.IF):
            return self.parse_if()
        return self.parse_simple()

    def parse_group(self) -> Group:
        start = self._expect(TokenKind.GROUP)
        self._expect(TokenKind.LBRACE)
        members: List[Declare] = []
        while not self._accept(TokenKind.RBRACE):
            name_tok = self._expect(TokenKind.IDENT, "group member name")
            init: Optional[Expr] = None
            if self._accept(TokenKind.ASSIGN):
                init = self.parse_expr()
            self._expect(TokenKind.SEMI)
            members.append(Declare(name_tok.text, (), init, name_tok.line))
        markups = self.parse_markup_clauses(inline=True)
        self._expect(TokenKind.SEMI)
        return Group(tuple(members), tuple(markups), start.line)

    def parse_if(self) -> If:
        start = self._expect(TokenKind.IF)
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        then_body = self.parse_block()
        else_body: Tuple[Stmt, ...] = ()
        if self._accept(TokenKind.ELSE):
            if self._check(TokenKind.IF):
                else_body = (self.parse_if(),)
            else:
                else_body = self.parse_block()
        return If(cond, then_body, else_body, start.line)

    def parse_block(self) -> Tuple[Stmt, ...]:
        if self._accept(TokenKind.LBRACE):
            body: List[Stmt] = []
            while not self._accept(TokenKind.RBRACE):
                body.append(self.parse_stmt())
            return tuple(body)
        return (self.parse_stmt(),)

    def parse_simple(self) -> Stmt:
        name_tok = self._expect(TokenKind.IDENT, "variable name")
        init: Optional[Expr] = None
        if self._accept(TokenKind.ASSIGN):
            init = self.parse_expr()
        self._expect(TokenKind.SEMI)
        markups = self.parse_trailing_markups()
        if markups or init is None:
            return Declare(name_tok.text, tuple(markups), init, name_tok.line)
        return Assign(name_tok.text, init, name_tok.line)

    def parse_trailing_markups(self) -> List[Markup]:
        """Zero or more ``.markup(args);`` clauses after a statement."""
        markups: List[Markup] = []
        while self._check(TokenKind.DOT):
            markups.append(self.parse_markup())
            self._expect(TokenKind.SEMI)
        return markups

    def parse_markup_clauses(self, inline: bool) -> List[Markup]:
        """Markups glued to a group: ``}.nodal().param();`` style."""
        markups: List[Markup] = []
        while self._check(TokenKind.DOT):
            markups.append(self.parse_markup())
        return markups

    def parse_markup(self) -> Markup:
        self._expect(TokenKind.DOT)
        name_tok = self._expect(TokenKind.IDENT, "markup name")
        args: List[Union[float, str]] = []
        self._expect(TokenKind.LPAREN)
        while not self._check(TokenKind.RPAREN):
            args.append(self.parse_markup_arg())
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        return Markup(name_tok.text, tuple(args))

    def parse_markup_arg(self) -> Union[float, str]:
        negative = bool(self._accept(TokenKind.MINUS))
        token = self._next()
        if token.kind is TokenKind.NUMBER:
            value = token.number_value
            return -value if negative else value
        if token.kind in (TokenKind.IDENT, TokenKind.STRING) and not negative:
            return token.text
        raise SyntaxErrorEasyML(
            f"bad markup argument {token.text!r}",
            token.line, token.column, self.filename)

    # -- expressions: C precedence climbing -------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(1)
        if self._accept(TokenKind.QUESTION):
            then = self.parse_expr()
            self._expect(TokenKind.COLON)
            otherwise = self.parse_ternary()
            return Ternary(cond, then, otherwise)
        return cond

    def parse_binary(self, min_precedence: int) -> Expr:
        """Left-associative binary operators at or above a precedence."""
        expr = self.parse_unary()
        while True:
            precedence, op = _BINARY.get(self.tokens[self.pos].kind, _NONE)
            if precedence < min_precedence:
                return expr
            self.pos += 1
            expr = Binary(op, expr, self.parse_binary(precedence + 1))

    def parse_unary(self) -> Expr:
        kind = self.tokens[self.pos].kind
        if kind not in _PREFIX:
            return self.parse_power()
        self.pos += 1
        operand = self.parse_unary()
        return Unary(_PREFIX[kind], operand) if _PREFIX[kind] else operand

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if self._accept(TokenKind.CARET):
            # right associative, binds tighter than unary minus on the left
            exponent = self.parse_unary()
            return Call("pow", (base, exponent))
        return base

    def parse_primary(self) -> Expr:
        token = self.tokens[self.pos]
        if token.kind is TokenKind.NUMBER:
            self.pos += 1
            return Number(token.number_value)
        if token.kind is TokenKind.IDENT:
            self.pos += 1
            if self._accept(TokenKind.LPAREN):
                args: List[Expr] = []
                while not self._check(TokenKind.RPAREN):
                    args.append(self.parse_expr())
                    if not self._accept(TokenKind.COMMA):
                        break
                self._expect(TokenKind.RPAREN)
                return Call(token.text, tuple(args))
            return Name(token.text)
        if self._accept(TokenKind.LPAREN):
            expr = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        raise SyntaxErrorEasyML(
            f"unexpected token {token.text!r} in expression",
            token.line, token.column, self.filename)


def parse_model(source: str, name: str = "model",
                filename: str = "<model>") -> ModelAST:
    """Parse EasyML source into a :class:`ModelAST`."""
    return Parser(source, name, filename).parse_model()


def parse_model_file(path, name: Optional[str] = None) -> ModelAST:
    """Parse an EasyML ``.model`` file; name defaults to the file stem."""
    import pathlib

    path = pathlib.Path(path)
    with open(path) as handle:
        source = handle.read()
    return parse_model(source, name or path.stem, str(path))
