"""MiniF: the pseudo-Fortran frontend used by the loop-flattening compiler.

MiniF covers the language family of the paper: Fortran 77 control flow,
Fortran-D data mapping directives, and the F90simd constructs (WHERE,
FORALL, replicated scalars, vector literals).

Typical use::

    from repro.lang import parse_source, format_source, check_source

    tree = parse_source(text)
    check_source(tree)
    print(format_source(tree))
"""

from . import ast
from .errors import (
    CompileError,
    InterpreterError,
    LexError,
    MiniFError,
    ParseError,
    SemanticError,
    SourceLocation,
    TransformError,
)
from .lexer import tokenize
from .parser import parse_expression, parse_source, parse_statements
from .printer import (
    format_expr,
    format_source,
    format_statements,
)
from .semantic import check_source
from .symbols import Symbol, SymbolTable, build_symbol_table

__all__ = [
    "ast",
    "tokenize",
    "parse_source",
    "parse_statements",
    "parse_expression",
    "format_source",
    "format_statements",
    "format_expr",
    "check_source",
    "build_symbol_table",
    "Symbol",
    "SymbolTable",
    "MiniFError",
    "LexError",
    "ParseError",
    "SemanticError",
    "TransformError",
    "CompileError",
    "InterpreterError",
    "SourceLocation",
]
