"""Small-step call-by-value reference interpreter.

`decompose`/`step` are the literal one-reduction-at-a-time functions;
`eval_expr` performs the same reductions with an explicit frame stack so that
large fuel budgets stay affordable.  Counters: `calls` counts (Global) and
(App) reductions, `allocs` counts constructor values built from not-yet-value
arguments, `steps` counts every reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    Alt,
    App,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    Expression,
    FIX_NAME,
    Global,
    IntLit,
    Lambda,
    Let,
    Letrec,
    PrimOp,
    Program,
    Var,
    desugar_letrec,
    fix_definition,
    free_vars,
    program_externals,
    select_alt,
    substitute,
)

Globals = dict[str, Expression]


class StuckError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class EvalOutcome:
    kind: str  # value | out_of_fuel | stuck
    value: Optional[Expression]
    reason: Optional[str]
    calls: int
    allocs: int
    steps: int

    def stats_block(self) -> str:
        return (
            f"calls={self.calls} allocs={self.allocs} steps={self.steps} "
            f"outcome={self.kind}"
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


def apply_prim(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    raise StuckError(f"unknown operator {op!r}")


def _select_alt(v: Expression, alts: tuple[Alt, ...]) -> Expression:
    """(KCase)/(NCase): pick the branch for a scrutinee value and substitute."""
    alt = select_alt(v, alts)
    if alt is None:
        match v:
            case CtorApp(k, _):
                raise StuckError(f"no alternative matches constructor {k}")
            case IntLit(n):
                raise StuckError(f"no alternative matches {n}")
        raise StuckError("case scrutinee is not a data value")
    match alt.pattern:
        case CtorPat(_, binders):
            return substitute(dict(zip(binders, v.args)), alt.body)
        case DefaultPat(b) if b is not None:
            return substitute({b: v}, alt.body)
    return alt.body


def _lookup_global(name: str, G: Globals) -> Expression:
    v = G.get(name)
    if v is None:
        if name == FIX_NAME:
            return fix_definition()
        raise StuckError(f"undefined function {name}")
    return v


def _encode_letrec(e: Letrec) -> Expression:
    try:
        return desugar_letrec(e.fun, e.rhs, e.body)
    except Exception as exc:
        raise StuckError(f"malformed letrec: {exc}") from exc


# ---------------------------------------------------------------------------
# one-step semantics (decompose / step)

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
            case Global(_) | Letrec(_, _, _):
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


def _reduce(redex: Expression, G: Globals) -> Expression:
    match redex:
        case Global(g):
            return _lookup_global(g, G)
        case App(Lambda(p, b), a):
            return substitute({p: a}, b)
        case Let(x, v, body):
            return substitute({x: v}, body)
        case Case(v, alts):
            return _select_alt(v, alts)
        case PrimOp(op, IntLit(a), IntLit(b)):
            return IntLit(apply_prim(op, a, b))
        case Letrec(_, _, _):
            return _encode_letrec(redex)
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
    """Literal step iteration; counts calls and steps (allocation counting is
    a property of the frame machine).  Used as an oracle for eval_expr.
    """
    calls = steps = 0
    while True:
        out = _decompose_ex(e)
        if out[0] == "value":
            return EvalOutcome("value", e, None, calls, 0, steps)
        if out[0] == "stuck":
            return EvalOutcome("stuck", None, out[2], calls, 0, steps)
        if steps >= fuel:
            return EvalOutcome("out_of_fuel", None, None, calls, 0, steps)
        _, frames, redex = out
        match redex:
            case Global(_) | App(_, _):
                calls += 1
        steps += 1
        e = plug(frames, _reduce(redex, G))


# ---------------------------------------------------------------------------
# frame machine


def eval_expr(e: Expression, G: Globals, fuel: int = 1_000_000) -> EvalOutcome:
    calls = allocs = steps = 0
    frames: list[Frame] = []
    focus = e
    # ctor terms already verified (or built) as values, keyed by id and pinned
    known_values: dict[int, Expression] = {}

    def value_of(t: Expression) -> bool:
        match t:
            case IntLit() | Lambda():
                return True
            case CtorApp(_, args):
                if id(t) in known_values:
                    return True
                if all(value_of(a) for a in args):
                    known_values[id(t)] = t
                    return True
                return False
            case _:
                return False

    def out(kind: str, value=None, reason=None) -> EvalOutcome:
        return EvalOutcome(kind, value, reason, calls, allocs, steps)

    while True:
        # find the next redex, pushing frames per the context grammar
        if not value_of(focus):
            match focus:
                case Var(x):
                    return out("stuck", reason=f"free variable {x}")
                case Global(g):
                    if steps >= fuel:
                        return out("out_of_fuel")
                    try:
                        focus = _lookup_global(g, G)
                    except StuckError as s:
                        return out("stuck", reason=s.reason)
                    calls += 1
                    steps += 1
                    continue
                case Letrec(_, _, _):
                    if steps >= fuel:
                        return out("out_of_fuel")
                    try:
                        focus = _encode_letrec(focus)
                    except StuckError as s:
                        return out("stuck", reason=s.reason)
                    steps += 1
                    continue
                case App(f, a):
                    frames.append(("app_fun", a))
                    focus = f
                    continue
                case Let(x, bound, body):
                    frames.append(("let", x, body))
                    focus = bound
                    continue
                case Case(scrut, alts):
                    frames.append(("case", alts))
                    focus = scrut
                    continue
                case PrimOp(op, l, r):
                    frames.append(("prim_l", op, r))
                    focus = l
                    continue
                case CtorApp(k, args):
                    pending = list(args)
                    first = pending.pop(0)
                    frames.append(("ctor", k, [], pending))
                    focus = first
                    continue
                case _:
                    return out("stuck", reason=f"cannot evaluate {type(focus).__name__}")

        # focus is a value: complete the innermost frame
        if not frames:
            return out("value", value=focus)
        fr = frames.pop()
        match fr:
            case ("app_fun", arg):
                if not isinstance(focus, Lambda):
                    return out("stuck", reason="application of a non-function value")
                frames.append(("app_arg", focus))
                focus = arg
            case ("app_arg", lam):
                if steps >= fuel:
                    return out("out_of_fuel")
                focus = substitute({lam.param: focus}, lam.body)
                calls += 1
                steps += 1
            case ("ctor", k, done, pending):
                done.append(focus)
                if pending:
                    focus = pending.pop(0)
                    frames.append(("ctor", k, done, pending))
                else:
                    focus = CtorApp(k, tuple(done))
                    known_values[id(focus)] = focus
                    allocs += 1
            case ("prim_l", op, rhs):
                if not isinstance(focus, IntLit):
                    return out("stuck", reason="arithmetic on a non-integer")
                frames.append(("prim_r", op, focus.value))
                focus = rhs
            case ("prim_r", op, n):
                if not isinstance(focus, IntLit):
                    return out("stuck", reason="arithmetic on a non-integer")
                if steps >= fuel:
                    return out("out_of_fuel")
                focus = IntLit(apply_prim(op, n, focus.value))
                steps += 1
            case ("case", alts):
                if steps >= fuel:
                    return out("out_of_fuel")
                try:
                    focus = _select_alt(focus, alts)
                except StuckError as s:
                    return out("stuck", reason=s.reason)
                steps += 1
            case ("let", x, body):
                if steps >= fuel:
                    return out("out_of_fuel")
                focus = substitute({x: focus}, body)
                steps += 1


# ---------------------------------------------------------------------------
# program-level helpers


def bind_externals(program: Program) -> Program:
    """Replace unknown external functions (free variables of definition
    bodies) by the identity function, so closed entry calls can be evaluated.
    """
    externals = program_externals(program)
    if not externals:
        return program
    identity = Lambda("z", Var("z"))
    mapping = {x: identity for x in externals}
    defs = {name: substitute(mapping, body) for name, body in program.defs.items()}
    return Program(defs=defs, entry=program.entry)


def eval_program(
    program: Program, call: Expression, fuel: int = 1_000_000
) -> EvalOutcome:
    """Evaluate a closed entry call against a program, externals bound to
    the identity function.
    """
    bound = bind_externals(program)
    missing = free_vars(call)
    if missing:
        raise StuckError(f"entry call has free variables {sorted(missing)}")
    return eval_expr(call, bound.defs, fuel)
