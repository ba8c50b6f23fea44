"""A positive supercompiler for a strict, pure, higher-order core language,
together with an instrumented reference interpreter.

The package exports the abstract syntax, parsing and printing, the
supercompiler and its golden comparison, and the evaluator; the analyses,
the whistle and the traversals live in their submodules.
"""

from .driver import DriverError, program_alpha_eq, supercompile
from .parser import ParseError, parse_expression, parse_program
from .pretty import pretty_expr, pretty_program
from .semantics import EvalOutcome, eval_program
from .syntax import (
    Alt,
    App,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    Expression,
    Global,
    IntLit,
    IntPat,
    Lambda,
    Let,
    Pattern,
    PrimOp,
    Program,
    Var,
)

__all__ = [
    "Alt",
    "App",
    "Case",
    "CtorApp",
    "CtorPat",
    "DefaultPat",
    "DriverError",
    "EvalOutcome",
    "Expression",
    "Global",
    "IntLit",
    "IntPat",
    "Lambda",
    "Let",
    "ParseError",
    "Pattern",
    "PrimOp",
    "Program",
    "Var",
    "eval_program",
    "parse_expression",
    "parse_program",
    "pretty_expr",
    "pretty_program",
    "program_alpha_eq",
    "supercompile",
]
