"""Abstract syntax tree for EasyML models.

The tree mirrors the language's two layers: an expression language
(C-like arithmetic, comparisons, calls, ternaries) and a statement
layer (assignments, declarations with markup, groups, if/else).
:func:`evaluate` is the one walk that evaluates an expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .builtins import EVAL_ERRORS, OPERATORS
from .errors import SemanticError


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes.

    A node is a slotted dataclass with the ``repr``, ``==`` and hash a
    frozen one would have; it is built ~0.3 µs faster.  Nothing assigns
    to a node after it is built, so a walk may return a subtree as is.
    """

    __slots__ = ()

    def children(self) -> Sequence["Expr"]:
        return ()

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        """This node over ``children`` in place of its own."""
        return self

    def __reduce__(self):
        # a pickle rebuilds the node through its constructor: smaller
        # and quicker to load (a bundle's model blob) than slot state
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)


_node = dataclass(slots=True, unsafe_hash=True)


@_node
class Number(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@_node
class Name(Expr):
    identifier: str

    def __str__(self) -> str:
        return self.identifier


@_node
class Unary(Expr):
    op: str                      # '-' or '!'
    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> Expr:
        return Unary(self.op, *children)

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@_node
class Binary(Expr):
    op: str                      # '+', '-', '*', '/', '<', '==', 'and', ...
    lhs: Expr
    rhs: Expr

    def children(self) -> Sequence[Expr]:
        return (self.lhs, self.rhs)

    def with_children(self, children: Sequence[Expr]) -> Expr:
        return Binary(self.op, *children)

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@_node
class Call(Expr):
    callee: str
    args: Tuple[Expr, ...]

    def children(self) -> Sequence[Expr]:
        return self.args

    def with_children(self, children: Sequence[Expr]) -> Expr:
        return Call(self.callee, tuple(children))

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.callee}({inner})"


@_node
class Ternary(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self) -> Sequence[Expr]:
        return (self.cond, self.then, self.otherwise)

    def with_children(self, children: Sequence[Expr]) -> Expr:
        return Ternary(*children)

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
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        kind = type(node)
        if kind is Name:
            names.add(node.identifier)
        elif kind is Binary:
            push(node.lhs)
            push(node.rhs)
        elif kind is not Number:
            stack.extend(node.children())
    return names


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

#: what a domain's lookup returns for a leaf or call it cannot evaluate
RUNTIME = object()


def evaluate(expr: Expr, domain) -> Tuple[Optional[Expr], object]:
    """Post-order walk: ``(folded, None)`` for a runtime subtree,
    ``(None, value)`` for a constant one.

    ``domain`` supplies ``leaf(name)`` / ``call(callee)`` (a value / a
    function, :data:`RUNTIME`, or raise), ``column`` (the ``OPERATORS``
    column it evaluates with) and ``select(cond, then, otherwise)`` over
    both branch values, or None: a constant condition takes one branch.

    Children are visited left to right up to the first runtime one; the
    rest, a runtime call's arguments and the branches under a runtime
    condition are folded one by one through :func:`fold_value`.  So a
    constant operation that raises is named by the nearest subtree
    folded that way, or by the whole expression.  A runtime subtree no
    part of which folded is returned as is, not rebuilt.
    """
    return _EVALUATE[type(expr)](expr, domain)


def _evaluate_number(expr: Number, domain):
    return None, expr.value


def _evaluate_name(expr: Name, domain):
    value = domain.leaf(expr.identifier)
    return (expr, None) if value is RUNTIME else (None, value)


def _evaluate_unary(expr: Unary, domain):
    fn = _operator(expr.op, 1, domain)
    operand = expr.operand
    folded, value = _EVALUATE[type(operand)](operand, domain)
    if folded is None:
        return None, fn(value)
    return (expr if folded is operand else Unary(expr.op, folded)), None


def _evaluate_binary(expr: Binary, domain):
    fn = _operator(expr.op, 2, domain)
    lhs, rhs = expr.lhs, expr.rhs
    folded, a = _EVALUATE[type(lhs)](lhs, domain)
    if folded is not None:
        new_rhs = fold_value(rhs, domain)[0]
    else:
        new_rhs, b = _EVALUATE[type(rhs)](rhs, domain)
        if new_rhs is None:
            return None, fn(a, b)
        folded = lhs if type(lhs) is Number else Number(a)
    if folded is lhs and new_rhs is rhs:
        return expr, None
    return Binary(expr.op, folded, new_rhs), None


def _evaluate_ternary(expr: Ternary, domain):
    cond, c = evaluate(expr.cond, domain)
    if cond is not None:
        then = fold_value(expr.then, domain)[0]
        otherwise = fold_value(expr.otherwise, domain)[0]
        if cond is expr.cond and then is expr.then and \
                otherwise is expr.otherwise:
            return expr, None
        return Ternary(cond, then, otherwise), None
    if domain.select is None:
        return evaluate(expr.then if c else expr.otherwise, domain)
    return None, domain.select(c, evaluate(expr.then, domain)[1],
                               evaluate(expr.otherwise, domain)[1])


def _evaluate_call(expr: Call, domain):
    args = expr.args
    fn = domain.call(expr.callee)
    if fn is RUNTIME:
        return _rebuilt(expr, [fold_value(arg, domain)[0] for arg in args])
    values = []
    for arg in args:
        folded, value = evaluate(arg, domain)
        if folded is None:
            values.append(value)
            continue
        children = [done if type(done) is Number else Number(constant)
                    for done, constant in zip(args, values)]
        children.append(folded)
        for rest in args[len(children):]:
            children.append(fold_value(rest, domain)[0])
        return _rebuilt(expr, children)
    return None, fn(*values)


def _operator(symbol: str, arity: int, domain):
    row = OPERATORS.get((symbol, arity))
    if row is None:
        raise SemanticError(f"unknown operator {symbol!r}")
    return getattr(row, domain.column)


def _rebuilt(expr: Call, args: List[Expr]):
    """``(expr over args, None)``; ``expr`` itself when no arg changed."""
    for old, new in zip(expr.args, args):
        if old is not new:
            return Call(expr.callee, tuple(args)), None
    return expr, None


def _unsupported(expr, domain):
    raise SemanticError(f"unsupported expression node {expr!r}")


class _Dispatch(dict):
    """Node type -> its walk; any other type is unsupported."""

    def __missing__(self, kind):
        return _unsupported


_EVALUATE = _Dispatch({Number: _evaluate_number, Name: _evaluate_name,
                       Unary: _evaluate_unary, Binary: _evaluate_binary,
                       Ternary: _evaluate_ternary, Call: _evaluate_call})


def fold_value(expr: Expr, domain) -> Tuple[Expr, object]:
    """``expr`` folded (a :class:`Number` when constant) and its value,
    None for a runtime expression; a constant operation that raises is
    a :class:`SemanticError` naming ``expr``."""
    try:
        folded, value = evaluate(expr, domain)
    except EVAL_ERRORS as err:
        raise SemanticError(
            f"constant expression {expr} fails to evaluate: {err}")
    if value is None:
        return folded, None
    return (expr if type(expr) is Number else Number(value)), value


# ---------------------------------------------------------------------------
# Markup
# ---------------------------------------------------------------------------


@_node
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
