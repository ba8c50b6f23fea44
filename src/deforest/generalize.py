"""Termination machinery: the homeomorphic-embedding whistle, most specific
generalization and split.

Embedding compares terms up to erasure: all variables are alike, all integers
are alike, and binders, operators and patterns are ignored, which makes the
whistle slightly eager and keeps it a well-quasi-order.  msg/split are
stricter: operators and case shapes must agree, and generalization never
descends below a binder, so the common term is always rebuilt from its parts
by ordinary substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    App,
    Case,
    CtorApp,
    Expression,
    FreshSupply,
    Global,
    IntLit,
    Let,
    PrimOp,
    Var,
    children,
    free_vars,
    pattern_binders,
    rebuild,
)


def _symbol(e: Expression):
    """The node symbol that coupling compares; equal symbols mean equally
    many children.
    """
    t = type(e)
    if t is Global:
        return ("global", e.name)
    if t is CtorApp:
        return ("ctor", e.ctor, len(e.args))
    if t is Case:
        return ("caseof", len(e.alts))
    return t


def embeds(e: Expression, f: Expression) -> bool:
    """The whistle: e is homeomorphically embedded in f, either in a child
    of f (diving) or with equal symbols and each child of e embedded in the
    matching child of f (coupling).  Symbols erase variable names, integer
    values, binders, operators and patterns, so a variable embeds in any
    variable and an integer in any integer.
    """
    return _embeds(e, f, {})


def _embeds(a: Expression, b: Expression, memo: dict[tuple[int, int], bool]) -> bool:
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle, and it would keep the memo alive until the cyclic
    # garbage collector runs
    key = (id(a), id(b))
    hit = memo.get(key)
    if hit is not None:
        return hit
    kids = children(b)
    out = any(_embeds(a, c, memo) for c in kids) or (
        type(a) is type(b)
        and _symbol(a) == _symbol(b)
        and all(_embeds(x, y, memo) for x, y in zip(children(a), kids))
    )
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# most specific generalization


@dataclass(frozen=True)
class Generalization:
    common: Expression
    theta1: dict[str, Expression]
    theta2: dict[str, Expression]
    holes: tuple[str, ...]  # fresh hole variables, first occurrence order


# pair-tree nodes used while anti-unifying
_PVAR = "pvar"  # (a, b) variable pair
_PKEEP = "keep"  # identical or binder-carrying region kept from t1
_PHOLE = "hole"  # mismatch
_PNODE = "node"  # recursable pair with children


def _pair(t1: Expression, t2: Expression, varmap: dict[str, set[str]]):
    def constrain(a: str, b: str) -> None:
        varmap.setdefault(a, set()).add(b)

    def keep(region1: Expression) -> tuple:
        for v in free_vars(region1):
            constrain(v, v)
        return (_PKEEP, region1)

    match t1, t2:
        case Var(a), Var(b):
            constrain(a, b)
            return (_PVAR, t1, t2)
        case IntLit(a), IntLit(b) if a == b:
            return (_PKEEP, t1)
        case Global(a), Global(b) if a == b:
            return (_PKEEP, t1)
        case App(f1, a1), App(f2, a2):
            return (_PNODE, t1, t2, [_pair(f1, f2, varmap), _pair(a1, a2, varmap)])
        case CtorApp(k1, args1), CtorApp(k2, args2) if k1 == k2 and len(args1) == len(args2):
            kids = [_pair(x, y, varmap) for x, y in zip(args1, args2)]
            return (_PNODE, t1, t2, kids)
        case PrimOp(o1, l1, r1), PrimOp(o2, l2, r2) if o1 == o2:
            return (_PNODE, t1, t2, [_pair(l1, l2, varmap), _pair(r1, r2, varmap)])
        case Case(s1, alts1), Case(s2, alts2) if alts1 == alts2:
            for alt in alts1:
                binders = set(pattern_binders(alt.pattern))
                for v in free_vars(alt.body) - binders:
                    constrain(v, v)
            return (_PNODE, t1, t2, [_pair(s1, s2, varmap)], alts1)
        case Let(x1, b1, body1), Let(x2, b2, body2) if x1 == x2 and body1 == body2:
            for v in free_vars(body1) - {x1}:
                constrain(v, v)
            return (_PNODE, t1, t2, [_pair(b1, b2, varmap)], (x1, body1))
        case _ if t1 == t2:
            return keep(t1)
        case _:
            return (_PHOLE, t1, t2)


def msg(t1: Expression, t2: Expression, supply=None) -> Generalization:
    """First-order anti-unification.  Matching variable pairs keep the first
    term's variable (recorded as a rename); a variable matched inconsistently
    is generalized at every occurrence, identical mismatch pairs sharing one
    fresh hole variable.
    """
    if supply is None:
        supply = FreshSupply(free_vars(t1) | free_vars(t2))

    varmap: dict[str, set[str]] = {}
    tree = _pair(t1, t2, varmap)
    conflicted = {a for a, images in varmap.items() if len(images) > 1}

    holes: dict[tuple[Expression, Expression], Var] = {}
    theta1: dict[str, Expression] = {}
    theta2: dict[str, Expression] = {}
    renames1: dict[str, Expression] = {}
    renames2: dict[str, Expression] = {}

    def hole(a: Expression, b: Expression) -> Expression:
        v = holes.get((a, b))
        if v is None:
            v = supply.fresh_var()
            holes[(a, b)] = v
            theta1[v.name] = a
            theta2[v.name] = b
        return v

    def render(node) -> Expression:
        match node:
            case (_PVAR, Var(a) as va, Var(_) as vb):
                if a in conflicted:
                    return hole(va, vb)
                b = next(iter(varmap[a]))
                if a != b:
                    renames1[a] = va
                    renames2[a] = Var(b)
                return va
            case (_PKEEP, region):
                if any(v in conflicted for v in free_vars(region)):
                    return hole(region, region)
                return region
            case (_PHOLE, a, b):
                return hole(a, b)
            case (_PNODE, t1n, t2n, kids, *extra):
                if _carried_conflict(node, conflicted):
                    return hole(t1n, t2n)
                # the children after the paired ones (case alternatives, a
                # let body) are carried over from t1
                rendered = [render(k) for k in kids]
                return rebuild(t1n, rendered + list(children(t1n)[len(kids):]))
            case _:
                raise AssertionError(node)

    common = render(tree)
    theta1.update(renames1)
    theta2.update(renames2)
    return Generalization(
        common, theta1, theta2, tuple(v.name for v in holes.values())
    )


def _carried_conflict(node, conflicted: set[str]) -> bool:
    """A case/let pair carries its binder-scoped region verbatim; if a
    conflicted variable occurs there the whole pair must be generalized.
    """
    match node:
        case (_PNODE, t1n, _, _, alts) if isinstance(t1n, Case):
            for alt in alts:
                binders = set(pattern_binders(alt.pattern))
                if any(v in conflicted for v in free_vars(alt.body) - binders):
                    return True
            return False
        case (_PNODE, t1n, _, _, (x1, body1)):
            return any(v in conflicted for v in free_vars(body1) - {x1})
        case _:
            return False


# ---------------------------------------------------------------------------
# split


def _heads_agree(t1: Expression, t2: Expression) -> bool:
    match t1, t2:
        case App(_, _), App(_, _):
            return True
        case CtorApp(k1, a1), CtorApp(k2, a2):
            return k1 == k2 and len(a1) == len(a2)
        case PrimOp(o1, _, _), PrimOp(o2, _, _):
            return o1 == o2
        case Case(_, alts1), Case(_, alts2):
            return alts1 == alts2
        case Let(x1, _, b1), Let(x2, _, b2):
            return x1 == x2 and b1 == b2
        case _:
            return False


def split(
    t1: Expression, t2: Expression, supply=None
) -> tuple[Expression, list[Expression], list[str]]:
    """(common, parts, holes): substituting parts for holes in the common
    term rebuilds t1 exactly.  With agreeing head symbols this is the msg;
    otherwise every binder-free immediate subterm of t1 becomes a hole.
    """
    if supply is None:
        supply = FreshSupply(free_vars(t1) | free_vars(t2))
    if _heads_agree(t1, t2):
        g = msg(t1, t2, supply)
        return g.common, [g.theta1[h] for h in g.holes], list(g.holes)

    def fresh() -> Var:
        return supply.fresh_var()

    match t1:
        case App(f, a):
            hs = [fresh(), fresh()]
            return App(hs[0], hs[1]), [f, a], [h.name for h in hs]
        case CtorApp(k, args):
            hs = [fresh() for _ in args]
            return CtorApp(k, tuple(hs)), list(args), [h.name for h in hs]
        case PrimOp(op, l, r):
            hs = [fresh(), fresh()]
            return PrimOp(op, hs[0], hs[1]), [l, r], [h.name for h in hs]
        case Case(scrut, alts):
            h = fresh()
            return Case(h, alts), [scrut], [h.name]
        case Let(x, bound, body):
            h = fresh()
            return Let(x, h, body), [bound], [h.name]
        case _:
            # atoms and binder-headed terms have no splittable children
            return t1, [], []
