"""The small-step semantics, the oracle for the environment machine of
`deforest.semantics`.

`decompose`/`step` are the literal one-reduction-at-a-time functions, and
`eval_via_step` iterates them, counting calls, allocs, steps and unfolds
as `eval_expr` does.  They share the machine's primitive operations and
its reasons for a case that selects no branch.
"""

from __future__ import annotations

from typing import Optional

from deforest.semantics import (
    EvalOutcome,
    Globals,
    StuckError,
    _no_match,
    apply_prim,
)
from deforest.syntax import (
    Alt,
    App,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    Expression,
    Global,
    IntLit,
    Lambda,
    Let,
    PrimOp,
    Var,
    select_alt,
    substitute,
)


def is_value(e: Expression) -> bool:
    """v ::= n | \\x.e | k v-bar"""
    match e:
        case IntLit() | Lambda():
            return True
        case CtorApp(_, args):
            return all(is_value(a) for a in args)
        case _:
            return False


# context frames, innermost last:
#   ("app_fun", arg)       E e
#   ("app_arg", lam)       (\x.e) E
#   ("ctor", k, done, pending)   k v.. E e..
#   ("prim_l", op, rhs)    E (+) e
#   ("prim_r", op, n)      n (+) E
#   ("case", alts)         case E of
#   ("let", x, body)       let x = E in e

Frame = tuple


def _decompose_ex(e: Expression):
    """Returns ("value",), ("redex", frames, redex) or ("stuck", frames, reason)."""
    frames: list[Frame] = []
    focus = e
    while True:
        match focus:
            case Var(x):
                return ("stuck", frames, f"free variable {x}")
            case Global(_):
                return ("redex", frames, focus)
            case App(f, a):
                if not is_value(f):
                    frames.append(("app_fun", a))
                    focus = f
                    continue
                if not isinstance(f, Lambda):
                    return ("stuck", frames, "application of a non-function value")
                if not is_value(a):
                    frames.append(("app_arg", f))
                    focus = a
                    continue
                return ("redex", frames, focus)
            case Let(_, bound, _):
                if not is_value(bound):
                    frames.append(("let", focus.binder, focus.body))
                    focus = bound
                    continue
                return ("redex", frames, focus)
            case Case(scrut, alts):
                if not is_value(scrut):
                    frames.append(("case", alts))
                    focus = scrut
                    continue
                return ("redex", frames, focus)
            case PrimOp(op, l, r):
                if not is_value(l):
                    frames.append(("prim_l", op, r))
                    focus = l
                    continue
                if not isinstance(l, IntLit):
                    return ("stuck", frames, "arithmetic on a non-integer")
                if not is_value(r):
                    frames.append(("prim_r", op, l.value))
                    focus = r
                    continue
                if not isinstance(r, IntLit):
                    return ("stuck", frames, "arithmetic on a non-integer")
                return ("redex", frames, focus)
            case CtorApp(k, args):
                for i, a in enumerate(args):
                    if not is_value(a):
                        frames.append(("ctor", k, list(args[:i]), list(args[i + 1 :])))
                        focus = a
                        break
                else:
                    if frames:
                        return ("stuck", frames, "internal: value under frames")
                    return ("value",)
                continue
            case IntLit() | Lambda():
                if frames:
                    return ("stuck", frames, "internal: value under frames")
                return ("value",)
            case _:
                return ("stuck", frames, f"cannot evaluate {type(focus).__name__}")


def decompose(e: Expression):
    """Unique decomposition into (frames, redex), or None when e is a value.

    The outermost frame comes first; raises StuckError when no decomposition
    exists.  Intermediate non-value positions are descended per the reduction
    context grammar before this is called, so only whole-term values return
    None.
    """
    out = _decompose_ex(e)
    if out[0] == "value":
        return None
    if out[0] == "stuck":
        raise StuckError(out[2])
    return out[1], out[2]


def plug(frames: list[Frame], e: Expression) -> Expression:
    for fr in reversed(frames):
        match fr:
            case ("app_fun", arg):
                e = App(e, arg)
            case ("app_arg", lam):
                e = App(lam, e)
            case ("ctor", k, done, pending):
                e = CtorApp(k, tuple(done) + (e,) + tuple(pending))
            case ("prim_l", op, rhs):
                e = PrimOp(op, e, rhs)
            case ("prim_r", op, n):
                e = PrimOp(op, IntLit(n), e)
            case ("case", alts):
                e = Case(e, alts)
            case ("let", x, body):
                e = Let(x, e, body)
    return e


def _match_alt(v, alts: tuple[Alt, ...]) -> Alt:
    """(KCase)/(NCase): the branch a scrutinee value selects."""
    alt = select_alt(v, alts)
    if alt is None:
        raise StuckError(_no_match(v))
    return alt


def _alt_bindings(alt: Alt, v) -> dict:
    """What the selected branch's pattern binds."""
    match alt.pattern:
        case CtorPat(_, binders):
            return dict(zip(binders, v.args))
        case DefaultPat(b) if b is not None:
            return {b: v}
    return {}


def _lookup_global(name: str, G: Globals) -> Expression:
    v = G.get(name)
    if v is None:
        raise StuckError(f"undefined function {name}")
    return v


def _reduce(redex: Expression, G: Globals) -> Expression:
    match redex:
        case Global(g):
            return _lookup_global(g, G)
        case App(Lambda(p, b), a):
            return substitute({p: a}, b)
        case Let(x, v, body):
            return substitute({x: v}, body)
        case Case(v, alts):
            alt = _match_alt(v, alts)
            return substitute(_alt_bindings(alt, v), alt.body)
        case PrimOp(op, IntLit(a), IntLit(b)):
            return IntLit(apply_prim(op, a, b))
        case _:
            raise StuckError("no reduction rule applies")


def step(e: Expression, G: Globals) -> Optional[Expression]:
    """Perform exactly one reduction; None when e is already a value."""
    out = _decompose_ex(e)
    if out[0] == "value":
        return None
    if out[0] == "stuck":
        raise StuckError(out[2])
    _, frames, redex = out
    return plug(frames, _reduce(redex, G))


def eval_via_step(e: Expression, G: Globals, fuel: int) -> EvalOutcome:
    """Literal step iteration, the oracle for eval_expr.  An alloc is counted
    whenever a reduct that is a value completes a constructor frame (its
    pending arguments all values), and again for each enclosing constructor
    frame that this completes in turn.
    """
    calls = allocs = steps = unfolds = 0
    while True:
        out = _decompose_ex(e)
        if out[0] == "value":
            return EvalOutcome("value", e, None, calls, allocs, steps, unfolds)
        if out[0] == "stuck":
            return EvalOutcome("stuck", None, out[2], calls, allocs, steps, unfolds)
        if steps >= fuel:
            return EvalOutcome("out_of_fuel", None, None, calls, allocs, steps, unfolds)
        _, frames, redex = out
        try:
            reduct = _reduce(redex, G)
        except StuckError as s:
            return EvalOutcome("stuck", None, s.reason, calls, allocs, steps, unfolds)
        match redex:
            case Global(_):
                calls += 1
                unfolds += 1
            case App(_, _):
                calls += 1
        steps += 1
        if is_value(reduct):
            for fr in reversed(frames):
                if fr[0] != "ctor" or not all(is_value(a) for a in fr[3]):
                    break
                allocs += 1
        e = plug(frames, reduct)
