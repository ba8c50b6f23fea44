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
    Let,
    PrimOp,
    Var,
    children,
    pattern_binders,
    unfold_apps,
)


def strict_vars(e: Expression) -> set[str]:
    """The free variables e is sure to evaluate: everything except variables
    under a lambda or missing from some case branch.
    """
    match e:
        case Var(x):
            return {x}
        case Lambda(_, _):
            return set()
        case Let(x, bound, body):
            return strict_vars(bound) | (strict_vars(body) - {x})
        case Case(scrut, alts):
            branches = [
                strict_vars(alt.body) - set(pattern_binders(alt.pattern))
                for alt in alts
            ]
            common = branches[0] if branches else set()
            for b in branches[1:]:
                common &= b
            return strict_vars(scrut) | common
    out: set[str] = set()
    for c in children(e):
        out |= strict_vars(c)
    return out


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
