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

The parser reads the lexer's flat kind and text lists and asks for a
line only where a statement or an error needs one.  Nesting is bounded
by :data:`MAX_DEPTH`, so no later tree walk (fold, IR generation,
printing, lowering) can run out of Python stack on a parsed model.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple, Union

from .ast_nodes import (Assign, Binary, Call, Declare, Expr, Group, If,
                        Markup, ModelAST, Name, Number, Stmt, Ternary, Unary)
from .errors import SyntaxErrorEasyML
from .lexer import Scan, TokenKind

#: the deepest a model may nest: an expression's height, counting every
#: operator, call, ternary, sign and pair of parentheses as one level and
#: a statement under ``if`` as one level below it (the zoo reaches 40)
MAX_DEPTH = 100

#: binary operators, all left-associative: kind (= the node's spelling)
#: -> precedence
_BINARY = {
    "or": 1,
    "and": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}
#: prefix operators: kind -> spelling (unary plus leaves no node)
_PREFIX = {"-": "-", "+": "", "not": "!"}


class Parser:
    def __init__(self, source: str, name: str = "model",
                 filename: str = "<model>"):
        self.scan = Scan(source, filename)
        self.kinds = self.scan.kinds
        self.texts = self.scan.texts
        self.pos = 0
        self.source_digest = hashlib.sha256(source.encode()).hexdigest()
        self.name = name
        self.filename = filename

    # -- token helpers ---------------------------------------------------------

    def _accept(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def _expect(self, kind: str, what: str = "") -> int:
        """Consume a ``kind`` token; its index."""
        pos = self.pos
        if self.kinds[pos] != kind:
            wanted = what or TokenKind(kind).name
            raise self._error(
                f"expected {wanted}, got {self.scan.value(pos)!r}", pos)
        self.pos = pos + 1
        return pos

    def _error(self, message: str, pos: int) -> SyntaxErrorEasyML:
        return SyntaxErrorEasyML(message, *self.scan.position(pos),
                                 self.filename)

    def _too_deep(self, pos: int) -> SyntaxErrorEasyML:
        return self._error(f"nesting deeper than {MAX_DEPTH} levels", pos)

    # -- entry ------------------------------------------------------------------

    def parse_model(self) -> ModelAST:
        statements: List[Stmt] = []
        while self.kinds[self.pos] != "EOF":
            statements.append(self.parse_stmt(0))
        return ModelAST(self.name, tuple(statements), self.source_digest)

    # -- statements ----------------------------------------------------------------
    # ``depth``: how many levels sit above the statement being parsed

    def parse_stmt(self, depth: int) -> Stmt:
        kind = self.kinds[self.pos]
        if kind == "group":
            return self.parse_group()
        if kind == "if":
            return self.parse_if(depth)
        return self.parse_simple(depth)

    def parse_group(self) -> Group:
        line = self.scan.line(self._expect("group"))
        self._expect("{")
        members: List[Declare] = []
        while not self._accept("}"):
            at = self._expect("IDENT", "group member name")
            member_line = self.scan.line(at)
            init = self.parse_expr(0) if self._accept("=") else None
            self._expect(";")
            members.append(Declare(self.texts[at], (), init, member_line))
        markups = self.parse_markup_clauses()
        self._expect(";")
        return Group(tuple(members), tuple(markups), line)

    def parse_if(self, depth: int) -> If:
        line = self.scan.line(self._expect("if"))
        self._expect("(")
        cond = self.parse_expr(depth + 1)
        self._expect(")")
        then_body = self.parse_block(depth + 1)
        else_body: Tuple[Stmt, ...] = ()
        if self._accept("else"):
            if self.kinds[self.pos] == "if":
                else_body = (self.parse_if(depth + 1),)
            else:
                else_body = self.parse_block(depth + 1)
        return If(cond, then_body, else_body, line)

    def parse_block(self, depth: int) -> Tuple[Stmt, ...]:
        if self._accept("{"):
            body: List[Stmt] = []
            while not self._accept("}"):
                body.append(self.parse_stmt(depth))
            return tuple(body)
        return (self.parse_stmt(depth),)

    def parse_simple(self, depth: int) -> Stmt:
        at = self._expect("IDENT", "variable name")
        line = self.scan.line(at)
        init = self.parse_expr(depth) if self._accept("=") else None
        self._expect(";")
        markups = self.parse_trailing_markups()
        if markups or init is None:
            return Declare(self.texts[at], tuple(markups), init, line)
        return Assign(self.texts[at], init, line)

    def parse_trailing_markups(self) -> List[Markup]:
        """Zero or more ``.markup(args);`` clauses after a statement."""
        markups: List[Markup] = []
        while self.kinds[self.pos] == ".":
            markups.append(self.parse_markup())
            self._expect(";")
        return markups

    def parse_markup_clauses(self) -> List[Markup]:
        """Markups glued to a group: ``}.nodal().param();`` style."""
        markups: List[Markup] = []
        while self.kinds[self.pos] == ".":
            markups.append(self.parse_markup())
        return markups

    def parse_markup(self) -> Markup:
        self._expect(".")
        name = self.texts[self._expect("IDENT", "markup name")]
        args: List[Union[float, str]] = []
        self._expect("(")
        while self.kinds[self.pos] != ")":
            args.append(self.parse_markup_arg())
            if not self._accept(","):
                break
        self._expect(")")
        return Markup(name, tuple(args))

    def parse_markup_arg(self) -> Union[float, str]:
        negative = self._accept("-")
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "NUMBER":
            self.pos = pos + 1
            value = float(self.texts[pos])
            return -value if negative else value
        if kind in ("IDENT", "STRING") and not negative:
            self.pos = pos + 1
            return self.scan.value(pos)
        raise self._error(
            f"bad markup argument {self.scan.value(pos)!r}", pos)

    # -- expressions: C precedence climbing -------------------------------------------
    # Each returns the node and its height; ``depth`` counts the levels
    # above it.  A node whose first operand was parsed before the node
    # was seen (an operator's lhs, a ternary's condition, a power's
    # base) checks ``depth + height`` when it is built; every other
    # level is refused on the way down, before it can recurse.

    def parse_expr(self, depth: int = 0) -> Expr:
        return self._ternary(depth)[0]

    def _ternary(self, depth: int) -> Tuple[Expr, int]:
        cond, height = self._binary(1, depth)
        if self.kinds[self.pos] != "?":
            return cond, height
        at = self.pos
        self.pos = at + 1
        then, then_height = self._ternary(depth + 1)
        self._expect(":")
        otherwise, else_height = self._ternary(depth + 1)
        height = 1 + max(height, then_height, else_height)
        if depth + height > MAX_DEPTH:
            raise self._too_deep(at)
        return Ternary(cond, then, otherwise), height

    def _binary(self, min_precedence: int, depth: int) -> Tuple[Expr, int]:
        """Left-associative binary operators at or above a precedence."""
        expr, height = self._operand(depth)
        kinds = self.kinds
        while True:
            op = kinds[self.pos]
            precedence = _BINARY.get(op, 0)
            if precedence < min_precedence:
                return expr, height
            at = self.pos
            self.pos = at + 1
            rhs, rhs_height = self._binary(precedence + 1, depth + 1)
            height = 1 + (height if height > rhs_height else rhs_height)
            if depth + height > MAX_DEPTH:
                raise self._too_deep(at)
            expr = Binary(op, expr, rhs)

    def _operand(self, depth: int) -> Tuple[Expr, int]:
        """Prefix operators over a primary and its ``^`` exponent."""
        pos = self.pos
        if depth >= MAX_DEPTH:
            raise self._too_deep(pos)
        kind = self.kinds[pos]
        if kind in _PREFIX:
            self.pos = pos + 1
            operand, height = self._operand(depth + 1)
            op = _PREFIX[kind]
            return (Unary(op, operand) if op else operand), height + 1
        if kind == "NUMBER":
            self.pos = pos + 1
            expr, height = Number(float(self.texts[pos])), 1
        elif kind == "IDENT":
            self.pos = pos + 1
            if self.kinds[pos + 1] == "(":
                expr, height = self._call(self.texts[pos], depth)
            else:
                expr, height = Name(self.texts[pos]), 1
        elif kind == "(":
            self.pos = pos + 1
            expr, height = self._ternary(depth + 1)
            self._expect(")")
            height += 1
        else:
            raise self._error(f"unexpected token {self.scan.value(pos)!r} "
                              f"in expression", pos)
        if self.kinds[self.pos] != "^":
            return expr, height
        # right associative, binds tighter than unary minus on the left
        at = self.pos
        self.pos = at + 1
        exponent, exponent_height = self._operand(depth + 1)
        height = 1 + max(height, exponent_height)
        if depth + height > MAX_DEPTH:
            raise self._too_deep(at)
        return Call("pow", (expr, exponent)), height

    def _call(self, callee: str, depth: int) -> Tuple[Expr, int]:
        """``callee(args)`` from its ``(``."""
        self.pos += 1
        args: List[Expr] = []
        height = 0
        while self.kinds[self.pos] != ")":
            arg, arg_height = self._ternary(depth + 1)
            args.append(arg)
            height = max(height, arg_height)
            if not self._accept(","):
                break
        self._expect(")")
        return Call(callee, tuple(args)), height + 1


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
