"""Strictness and linearity, and the blocked-expression classifier.

The two guards that keep driving call-by-value safe: a let may only be
substituted when the body is strict and linear in the bound variable (one
`demand` walk decides both), and arithmetic or case dispatch over terms
blocked on free variables is residualized in place.
"""

from __future__ import annotations

from .syntax import (
    App,
    Case,
    CtorApp,
    Expression,
    IntLit,
    Lambda,
    Let,
    PrimOp,
    Var,
    free_vars,
    pattern_binders,
)


def demand(e: Expression, x: str) -> tuple[bool, int]:
    """How e uses the variable x, in one walk: (strict, occurrences).

    Strict: evaluating e is sure to evaluate x, that is, x occurs outside
    every lambda, and in the scrutinee of a case or in all its branches.
    Occurrences are counted with the case rule: a case contributes its
    scrutinee's count plus the largest count of a branch, so x may occur once
    in each of several branches.  The count is capped at 2.  Occurrences
    under a binder of x do not count.
    """
    strict, n = False, 0
    while True:  # loops on the last child, so a long list costs no stack
        t = type(e)
        if t is App:
            s, k = demand(e.fun, x)
            e = e.arg
        elif t is PrimOp:
            s, k = demand(e.lhs, x)
            e = e.rhs
        elif t is Let:
            s, k = demand(e.bound, x)
            if e.binder == x:
                return strict or s, min(n + k, 2)
            e = e.body
        elif t is CtorApp and e.args:
            args = e.args
            for i in range(len(args) - 1):
                s, k = demand(args[i], x)
                strict, n = strict or s, n + k
            e = args[-1]
            continue
        elif t is Var:
            return (True, min(n + 1, 2)) if e.name == x else (strict, min(n, 2))
        elif t is Lambda:
            k = demand(e.body, x)[1] if e.param != x else 0
            return strict, min(n + k, 2)
        elif t is Case:
            s, k = demand(e.scrutinee, x)
            every, most = bool(e.alts), 0
            for alt in e.alts:
                if x in pattern_binders(alt.pattern):
                    every = False
                else:
                    s2, k2 = demand(alt.body, x)
                    every, most = every and s2, max(most, k2)
            return strict or s or every, min(n + k + most, 2)
        else:  # IntLit, Global, a constructor without arguments
            return strict, min(n, 2)
        strict, n = strict or s, n + k
        if strict and n >= 2:
            return True, 2


def strict_vars(e: Expression) -> set[str]:
    """The free variables e is sure to evaluate: everything except variables
    under a lambda or missing from some case branch.
    """
    return {v for v in free_vars(e) if demand(e, v)[0]}


def is_annoying(e: Expression) -> bool:
    """a ::= x | n (+) a | a (+) n | a (+) a | a e-bar

    Expressions that would reduce if only their free variables were known.
    An application spine is annoying when its head is.
    """
    t = type(e)
    if t is Var:
        return True
    if t is PrimOp:
        tl, tr = type(e.lhs), type(e.rhs)
        if tl is IntLit:
            return tr is Var or tr is not IntLit and is_annoying(e.rhs)
        return (tl is Var or is_annoying(e.lhs)) and (tr in (IntLit, Var) or is_annoying(e.rhs))
    if t is App:
        while type(e) is App:
            e = e.fun
        return type(e) is Var or is_annoying(e)
    return False
