"""EasyML: the ionic-model DSL frontend (lexer, parser, AST)."""

from .ast_nodes import (Assign, Binary, Call, Declare, Expr, Group, If,
                        Markup, ModelAST, Name, Number, Stmt, Ternary, Unary,
                        free_names, walk_expr)
from .errors import EasyMLError, LexerError, SemanticError, SyntaxErrorEasyML
from .lexer import Scan, Token, TokenKind, tokenize
from .parser import MAX_DEPTH, Parser, parse_model, parse_model_file

__all__ = [
    "Assign", "Binary", "Call", "Declare", "Expr", "Group", "If", "Markup",
    "ModelAST", "Name", "Number", "Stmt", "Ternary", "Unary", "free_names",
    "walk_expr", "EasyMLError", "LexerError", "SemanticError",
    "SyntaxErrorEasyML", "Scan", "Token", "TokenKind", "tokenize",
    "MAX_DEPTH", "Parser", "parse_model", "parse_model_file",
]
