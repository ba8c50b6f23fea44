"""Strictness approximation and the blocked-expression classifier.

The two guards that keep driving call-by-value safe: a let may only be
substituted when the body is strict in the bound variable, and arithmetic or
case dispatch over terms blocked on free variables is residualized in place.
"""

from __future__ import annotations

from .syntax import (
    App,
    Case,
    Expression,
    IntLit,
    Lambda,
    PrimOp,
    Var,
    scopes,
    unfold_apps,
)


def strict_vars(e: Expression) -> set[str]:
    """The free variables e is sure to evaluate: everything except variables
    under a lambda or missing from some case branch.
    """
    t = type(e)
    if t is Var:
        return {e.name}
    if t is Lambda:
        return set()
    parts = [strict_vars(c).difference(bs) for c, bs in scopes(e)]
    if t is Case:
        scrut, *branches = parts
        return scrut | (set.intersection(*branches) if branches else set())
    return set().union(*parts)


def is_annoying(e: Expression) -> bool:
    """a ::= x | n (+) a | a (+) n | a (+) a | a e-bar

    Expressions that would reduce if only their free variables were known.
    An application spine is annoying when its head is.
    """
    match e:
        case Var(_):
            return True
        case PrimOp(_, l, r):
            l_ok = isinstance(l, IntLit) or is_annoying(l)
            r_ok = isinstance(r, IntLit) or is_annoying(r)
            both_lit = isinstance(l, IntLit) and isinstance(r, IntLit)
            return l_ok and r_ok and not both_lit
        case App(_, _):
            head, _ = unfold_apps(e)
            return is_annoying(head)
        case _:
            return False
