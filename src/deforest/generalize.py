"""Termination machinery: the homeomorphic-embedding whistle, most specific
generalization and split.

Embedding compares terms up to erasure: all variables are alike, all integers
are alike, and binders, operators and patterns are ignored, which makes the
whistle slightly eager and keeps it a well-quasi-order.  msg/split are
stricter: operators and case shapes must agree, and generalization never
descends below a binder, so the common term is always rebuilt from its parts
by ordinary substitution.

`embeds` decides the whistle by its definition on terms.  The driver first
tests each pair on the symbols that the fold-key walk (`canonical_symbols`)
lists in preorder and in postorder, which refuses almost every pair that does
not embed, so `embeds` mostly meets pairs that do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    App,
    Case,
    CtorApp,
    Expression,
    FreshSupply,
    Global,
    Let,
    PrimOp,
    Var,
    children,
    free_vars,
    rebuild,
    scopes,
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


def embeds(a: Expression, b: Expression) -> bool:
    """The whistle: a is homeomorphically embedded in b, either with equal
    symbols and each child of a embedded in the matching child of b
    (coupling) or in a child of b (diving).  Symbols erase variable names,
    integer values, binders, operators and patterns, so a variable embeds in
    any variable and an integer in any integer.

    The recursion is memoized on pairs of subterm objects and tries coupling
    first: the driver's pre-test leaves mostly pairs that embed, and most of
    those couple at the root, so diving first would search every subterm of
    b before finding it.
    """
    return _embeds(a, b, {})


def _embeds(a: Expression, b: Expression, memo: dict) -> bool:
    # a module-level function, not a closure: a recursive closure is a
    # reference cycle, and it would keep the memo alive until the cyclic
    # garbage collector runs.  Plain loops, not any/all over generators,
    # take one Python frame per level of b.
    key = (id(a), id(b))
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = False
    kids = children(b)
    if _symbol(a) == _symbol(b):
        for x, y in zip(children(a), kids):
            if not _embeds(x, y, memo):
                break
        else:
            out = True
    if not out:
        for c in kids:
            if _embeds(a, c, memo):
                out = True
                break
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
_PVAR = "pvar"  # (a, b): a variable pair
_PKEEP = "keep"  # (t, t, free variables of t): an identical pair kept from t1
_PHOLE = "hole"  # (t1, t2): a mismatch
_PNODE = "node"  # (t1, t2, paired children, free variables of the carried ones)


def _paired(t1: Expression, t2: Expression) -> Optional[int]:
    """How many leading children anti-unification pairs when t1 and t2 agree
    at the head, else None.  The children after them (case alternatives, a
    let body) are equal in both and carried over from t1.
    """
    match t1, t2:
        case App(), App():
            return 2
        case CtorApp(k1, a1), CtorApp(k2, a2) if k1 == k2 and len(a1) == len(a2):
            return len(a1)
        case PrimOp(o1, _, _), PrimOp(o2, _, _) if o1 == o2:
            return 2
        case Case(_, alts1), Case(_, alts2) if alts1 == alts2:
            return 1
        case Let(x1, _, b1), Let(x2, _, b2) if x1 == x2 and b1 == b2:
            return 1
    return None


def _pair(t1: Expression, t2: Expression, varmap: dict[str, set[str]]):
    if type(t1) is Var and type(t2) is Var:
        varmap.setdefault(t1.name, set()).add(t2.name)
        return (_PVAR, t1, t2)
    n = _paired(t1, t2)
    if n is not None:
        kids = [_pair(a, b, varmap) for a, b in zip(children(t1)[:n], children(t2))]
        kept: set[str] = set()
        for c, bs in scopes(t1)[n:]:
            kept |= free_vars(c).difference(bs)
        node = (_PNODE, t1, t2, kids, kept)
    elif t1 == t2:
        kept = free_vars(t1)
        node = (_PKEEP, t1, t1, kept)
    else:
        return (_PHOLE, t1, t2)
    # a variable in a region kept verbatim is paired with itself
    for v in kept:
        varmap.setdefault(v, set()).add(v)
    return node


def msg(t1: Expression, t2: Expression, supply=None) -> Generalization:
    """First-order anti-unification.  Matching variable pairs keep the first
    term's variable (recorded as a rename); a variable matched inconsistently
    is generalized at every occurrence, identical mismatch pairs sharing one
    fresh hole variable.
    """
    if supply is None:
        supply = FreshSupply(free_vars(t1) | free_vars(t2))
    varmap: dict[str, set[str]] = {}
    return _render_pairs(_pair(t1, t2, varmap), varmap, supply)


class _Msg:
    """The state of rendering one pair tree into a generalization."""

    def __init__(self, varmap: dict[str, set[str]], supply: FreshSupply):
        self.varmap = varmap
        self.conflicted = {a for a, images in varmap.items() if len(images) > 1}
        self.supply = supply
        self.holes: dict[tuple[Expression, Expression], Var] = {}
        self.theta1: dict[str, Expression] = {}
        self.theta2: dict[str, Expression] = {}
        self.renames1: dict[str, Expression] = {}
        self.renames2: dict[str, Expression] = {}


def _render_pairs(tree, varmap: dict[str, set[str]], supply: FreshSupply) -> Generalization:
    st = _Msg(varmap, supply)
    common = _render(tree, st)
    st.theta1.update(st.renames1)
    st.theta2.update(st.renames2)
    return Generalization(
        common, st.theta1, st.theta2, tuple(v.name for v in st.holes.values())
    )


def _hole(a: Expression, b: Expression, st: _Msg) -> Var:
    v = st.holes.get((a, b))
    if v is None:
        v = Var(st.supply.var("z"))
        st.holes[(a, b)] = v
        st.theta1[v.name] = a
        st.theta2[v.name] = b
    return v


def _render(node, st: _Msg) -> Expression:
    tag, t1, t2 = node[0], node[1], node[2]
    if tag == _PVAR:
        a = t1.name
        if a not in st.conflicted:
            b = next(iter(st.varmap[a]))
            if a != b:
                st.renames1[a] = t1
                st.renames2[a] = Var(b)
            return t1
    elif tag != _PHOLE:
        # a conflicted variable in a region kept verbatim (a kept pair, the
        # carried children of a node) generalizes the whole pair
        if st.conflicted.isdisjoint(node[-1]):
            if tag == _PKEEP:
                return t1
            kids = [_render(k, st) for k in node[3]]
            return rebuild(t1, kids + list(children(t1)[len(kids):]))
    return _hole(t1, t2, st)


# ---------------------------------------------------------------------------
# split


def split(
    t1: Expression, t2: Expression, supply=None
) -> tuple[Expression, list[Expression], list[str]]:
    """(common, parts, holes): substituting parts for holes in the common
    term rebuilds t1 exactly.  With agreeing head symbols this is the msg,
    unless the msg is a bare hole; otherwise every child of t1 that the msg
    would pair becomes a hole, as in Sørensen, Glück & Jones's split for a
    trivial msg.  So no part is t1 itself.
    """
    if supply is None:
        supply = FreshSupply(free_vars(t1) | free_vars(t2))
    varmap: dict[str, set[str]] = {}
    tree = _pair(t1, t2, varmap)
    if tree[0] == _PNODE:
        g = _render_pairs(tree, varmap, supply)
        if type(g.common) is not Var:
            return g.common, [g.theta1[h] for h in g.holes], list(g.holes)
        # the msg generalized the whole pair: its only part would be t1, and
        # driving t1 would meet the same pair again
    kids = children(t1)
    parts = list(kids[: _paired(t1, t1) or 0])
    if not parts:
        # atoms and binder-headed terms have no splittable children
        return t1, [], []
    hs = [Var(supply.var("z")) for _ in parts]
    return rebuild(t1, hs + list(kids[len(parts):])), parts, [h.name for h in hs]
