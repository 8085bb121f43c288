"""The mini-Argus language: lexer, parser, type checker, interpreter.

The paper's contribution is *linguistic*; this package reproduces the
language-level guarantees — promise types derived from handler types,
statically checked claim sites and except arms — as an executable DSL over
the runtime (see DESIGN.md §2).  An :class:`Interpreter` builds declared
guardians on any owner with ``create_guardian`` (an ``ArgusSystem`` or one
``RtHost`` process), and hands out a program as a ``(ctx)`` procedure for
any guardian to ``spawn``; the conformance suite runs the paper's Figures
3-1 and 4-2 this way on both backends.
"""

from repro.lang.errors import LangError, LexError, ParseError, TypeCheckError
from repro.lang.interp import Interpreter, load_module, run_source
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_module
from repro.lang.typecheck import check_module

__all__ = [
    "Interpreter",
    "LangError",
    "LexError",
    "ParseError",
    "TypeCheckError",
    "check_module",
    "load_module",
    "parse_module",
    "run_source",
    "tokenize",
]
