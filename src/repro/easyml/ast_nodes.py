"""Abstract syntax tree for EasyML models.

The tree mirrors the language's two layers: an expression language
(C-like arithmetic, comparisons, calls, ternaries) and a statement
layer (assignments, declarations with markup, groups, if/else).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    def children(self) -> Sequence["Expr"]:
        return ()


@dataclass(frozen=True)
class Number(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Name(Expr):
    identifier: str

    def __str__(self) -> str:
        return self.identifier


@dataclass(frozen=True)
class Unary(Expr):
    op: str                      # '-' or '!'
    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Binary(Expr):
    op: str                      # '+', '-', '*', '/', '<', '==', 'and', ...
    lhs: Expr
    rhs: Expr

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class Call(Expr):
    callee: str
    args: Tuple[Expr, ...]

    def children(self) -> Sequence[Expr]:
        return self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.callee}({inner})"


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self) -> Sequence[Expr]:
        return (self.cond, self.then, self.otherwise)

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.otherwise})"


def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def free_names(expr: Expr) -> set:
    """Identifiers referenced anywhere inside ``expr``."""
    names = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            names.add(node.identifier)
        else:
            stack.extend(node.children())
    return names


# ---------------------------------------------------------------------------
# Markup
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Markup:
    """One ``.name(arg, ...)`` clause attached to a declaration."""

    name: str
    args: Tuple[Union[float, str], ...] = ()

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f".{self.name}({inner})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for statement nodes."""


@dataclass
class Assign(Stmt):
    """``target = expr;`` — includes diff_/``_init`` forms."""

    target: str
    expr: Expr
    line: int = 0

    def __str__(self) -> str:
        return f"{self.target} = {self.expr};"


@dataclass
class Declare(Stmt):
    """``name; .markup(); ...`` — declares/annotates a variable."""

    name: str
    markups: Tuple[Markup, ...] = ()
    init: Optional[Expr] = None   # 'name = expr; .markup();' inline form
    line: int = 0

    def __str__(self) -> str:
        marks = " ".join(str(m) + ";" for m in self.markups)
        init = f" = {self.init}" if self.init is not None else ""
        return f"{self.name}{init}; {marks}".rstrip()


@dataclass
class Group(Stmt):
    """``group { decls } .markup();`` — shared markup for many variables."""

    members: Tuple[Declare, ...]
    markups: Tuple[Markup, ...] = ()
    line: int = 0

    def __str__(self) -> str:
        body = " ".join(str(m) for m in self.members)
        marks = "".join(str(m) for m in self.markups)
        return f"group{{ {body} }}{marks};"


@dataclass
class If(Stmt):
    """C-style conditional statement over assignments."""

    cond: Expr
    then_body: Tuple[Stmt, ...]
    else_body: Tuple[Stmt, ...] = ()
    line: int = 0

    def __str__(self) -> str:
        text = f"if ({self.cond}) {{ ... }}"
        if self.else_body:
            text += " else { ... }"
        return text


@dataclass
class ModelAST:
    """A parsed EasyML model: name plus ordered statements."""

    name: str
    statements: Tuple[Stmt, ...]
    #: sha256 of the source text these statements were parsed from; what
    #: the stores key a compiled kernel by (empty: not parsed from text)
    source_digest: str = ""

    def assignments(self) -> List[Assign]:
        """All top-level and nested assignments in source order."""
        found: List[Assign] = []

        def visit(stmts: Sequence[Stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, Assign):
                    found.append(stmt)
                elif isinstance(stmt, If):
                    visit(stmt.then_body)
                    visit(stmt.else_body)

        visit(self.statements)
        return found

    def declarations(self) -> List[Declare]:
        """All declarations, with group members flattened (markup merged)."""
        found: List[Declare] = []
        for stmt in self.statements:
            if isinstance(stmt, Declare):
                found.append(stmt)
            elif isinstance(stmt, Group):
                for member in stmt.members:
                    merged = Declare(member.name,
                                     member.markups + stmt.markups,
                                     member.init, member.line)
                    found.append(merged)
        return found
