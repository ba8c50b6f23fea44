"""Call-by-value reference interpreter.

`eval_expr` performs the reductions of the small-step semantics on an
environment machine: the state is a focus term and an
environment (name -> runtime value), frames carry their environment, a lambda
evaluates to a closure, and constructor values are built once and shared,
never copied or re-substituted.  A result is read back into a term by
substituting each closure's read-back environment into its lambda, which
gives the term the substitution semantics computes; a result with no closure
under it is that term already, and is returned as the machine built it.

An atom, a variable or an integer literal, needs no continuation frame: its
value is a lookup.  Where the machine would push a frame only to evaluate an
atom, it looks the atom up in place and hands the frame its value in the same
turn of its loop.  A case on an atom selects its branch (or runs out of fuel,
or gets stuck) at once, and a `_CASE` frame hands the value of its scrutinee
back to its case, so that one piece of code selects; a function value
meeting an atom argument binds it, a lambda in function position without
becoming a closure, so that a call of a global on atoms is its (Global) step
and its (App) steps in one turn; arithmetic uses atom operands directly; the
leading atoms of a constructor application are finished arguments at once.
Fuel rule: every reduction such a turn takes is taken only while steps <
fuel.  When the next one would cross the limit, or the atom is a free
variable or a value of the wrong kind, the machine takes the frame path
instead, which runs out of fuel or gets stuck exactly where literal step
iteration does.  So counters, fuel boundaries and stuck reasons are those of
the small-step semantics.

Case selection is one table lookup.  The first time a run meets an `alts`
tuple it builds its dispatch table (`_case_table`): constructor name and
arity, or integer, to the first alternative with that pattern, and the first
default alternative.  A data value selects its key's entry or else the
default, which is `syntax.select_alt`'s choice; a closure selects nothing.
The tables live for one run, keyed by `id(alts)`.  `select_alt` itself
serves the driver (R16/R17) and the small-step oracle.

Counters: `calls` counts (Global) and (App) reductions, `unfolds` the
(Global) ones among them, `steps` counts every reduction, and `allocs` counts
the constructor applications that a reduction completed: a constructor frame
records `steps` when it is pushed and allocates when it completes only if
`steps` has moved, since arguments that are values (integers, lambdas, bound
variables, such constructor applications) reach their value in no step.  A
closed data literal, constructors and integers only, is its own value.

`eval_program` runs an entry call against a program whose definitions may use
unknown external functions (their free variables): a variable bound nowhere
evaluates to the identity `\\z -> z`.  `eval_expr` on an open term gets
stuck at its free variable instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    App,
    Case,
    CtorApp,
    CtorPat,
    Expression,
    Global,
    IntLit,
    IntPat,
    Lambda,
    Let,
    PrimOp,
    Program,
    Var,
    free_vars,
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
    unfolds: int  # the (Global) reductions among `calls`

    def stats_block(self) -> str:
        return (
            f"calls={self.calls} allocs={self.allocs} steps={self.steps} "
            f"outcome={self.kind}"
        )


def apply_prim(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    raise StuckError(f"unknown operator {op!r}")


def _case_table(alts: tuple) -> dict:
    """The dispatch table of a case: (constructor, arity) or integer -> (body,
    pattern binders, None) for the first alternative with that pattern, and
    None -> (body, (), binder) for the first default alternative, or None.
    A data value selects its key's entry, else the default; this is
    `select_alt`'s choice.
    """
    table: dict = {None: None}
    for alt in alts:
        p = alt.pattern
        tp = type(p)
        if tp is CtorPat:
            table.setdefault((p.ctor, len(p.binders)), (alt.body, p.binders, None))
        elif tp is IntPat:
            table.setdefault(p.value, (alt.body, (), None))
        elif table[None] is None:
            table[None] = (alt.body, (), p.binder)
    return table


def _no_match(v) -> str:
    """Why a case on the value v selects no branch."""
    if type(v) is CtorApp:
        return f"no alternative matches constructor {v.ctor}"
    if type(v) is IntLit:
        return f"no alternative matches {v.value}"
    return "case scrutinee is not a data value"


# ---------------------------------------------------------------------------
# environment machine
#
# Runtime values: IntLit, Closure, and CtorApp whose arguments are runtime
# values.  Environments are never mutated, so closures and frames share them.


class Closure:
    """A term with the environment of its free variables; as a runtime
    value, the term is a lambda.
    """

    __slots__ = ("term", "env")

    def __init__(self, term: Expression, env: dict):
        self.term = term
        self.env = env


_EMPTY: dict = {}
_EXTERNAL = Closure(Lambda("z", Var("z")), _EMPTY)  # what an external function is

# frame tags; the frames, innermost last:
#   (_APP_FUN, arg, env)             E e
#   (_APP_ARG, closure)              v E
#   (_CTOR, term, done, env, steps)  k v.. E e..   (steps when pushed)
#   (_PRIM_L, op, rhs, env)          E (+) e
#   (_PRIM_R, op, n)                 n (+) E
#   (_CASE, case, env)               case E of   (the Case node itself)
#   (_LET, x, body, env)             let x = E in e
# numbered so that the return loop tests a frame with few comparisons: after
# _CASE, `tag <= _APP_ARG` picks the application frames and then
# `tag <= _PRIM_R` the arithmetic ones
_CASE, _APP_FUN, _APP_ARG, _PRIM_L, _PRIM_R, _CTOR, _LET = range(7)


def _is_data(e: CtorApp) -> bool:
    """Whether e is built of constructors and integer literals only, and so
    is its own value.
    """
    stack = [e]
    while stack:
        for a in stack.pop().args:
            ta = type(a)
            if ta is CtorApp:
                stack.append(a)
            elif ta is not IntLit:
                return False
    return True


def _close(term: Expression, env: dict, ext, done: dict) -> Expression:
    """term with its free variables replaced by their read-back values, which
    must already be in `done`; a variable env does not bind stands for ext.
    """
    mapping: dict[str, Expression] = {}
    for x in free_vars(term):
        v = env.get(x, ext)
        if v is not None:
            mapping[x] = done[id(v)]
    return substitute(mapping, term)


def _holds_closure(root) -> bool:
    """Whether a closure is under the runtime value root; each shared value is
    looked at once, so a value built by doubling costs its distinct nodes.
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        v = stack.pop()
        tv = type(v)
        if tv is CtorApp:
            if id(v) not in seen:
                seen.add(id(v))
                stack.extend(v.args)
        elif tv is Closure:
            return True
    return False


def _read_back(root, ext) -> Expression:
    """The term a runtime value stands for: the value itself when no closure
    is under it.  Otherwise iterative, so that long data values cannot exhaust
    the stack; `done` memoizes by identity, so shared values are read back once.
    """
    if not _holds_closure(root):
        return root
    done: dict[int, Expression] = {}
    stack = [root]
    while stack:
        v = stack[-1]
        if id(v) in done:
            stack.pop()
            continue
        tv = type(v)
        if tv is Closure:
            parts = [w for x in free_vars(v.term) if (w := v.env.get(x, ext)) is not None]
        elif tv is CtorApp:
            parts = v.args
        else:
            parts = ()
        todo = [p for p in parts if id(p) not in done]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if tv is Closure:
            done[id(v)] = _close(v.term, v.env, ext, done)
        elif tv is CtorApp:
            args = [done[id(a)] for a in v.args]
            same = all(r is a for r, a in zip(args, v.args))
            done[id(v)] = v if same else CtorApp(v.ctor, tuple(args))
        else:
            done[id(v)] = v
    return done[id(root)]


def _run(e: Expression, G: Globals, fuel: int, ext) -> EvalOutcome:
    """Evaluate e; a variable bound nowhere is the value ext, or stuck if None."""
    calls = allocs = steps = unfolds = 0
    frames: list[tuple] = []
    focus, env = e, _EMPTY
    # id(alts) -> _case_table(alts); every alts is part of e or of G, which
    # outlive the run, so no id is reused for another tuple
    tables: dict[int, dict] = {}
    pending = None  # the value of the scrutinee of the case in focus, if known

    def out(kind: str, value=None, reason=None) -> EvalOutcome:
        return EvalOutcome(kind, value, reason, calls, allocs, steps, unfolds)

    while True:
        # evaluate focus in env: push frames per the context grammar until
        # a value v is reached; a frame whose hole is an atom gets its value
        # in this turn
        t = type(focus)
        while t is App:
            frames.append((_APP_FUN, focus.arg, env))
            focus = focus.fun
            t = type(focus)
        if t is Global:
            if steps >= fuel:
                return out("out_of_fuel")
            body = G.get(focus.name)
            if body is None:
                return out("stuck", reason=f"undefined function {focus.name}")
            focus, env = body, _EMPTY
            calls += 1
            steps += 1
            unfolds += 1
            t = type(focus)
        if t is Lambda:
            # (App) on atom arguments: bind them without building a closure
            fresh = False  # whether env is a dict of this loop's own
            while frames and steps < fuel:
                fr = frames[-1]
                if fr[0] != _APP_FUN:
                    break
                a = fr[1]
                ta = type(a)
                a = a if ta is IntLit else fr[2].get(a.name, ext) if ta is Var else None
                if a is None:
                    break
                frames.pop()
                if fresh:
                    env[focus.param] = a
                else:
                    env, fresh = {**env, focus.param: a}, True
                focus = focus.body
                calls += 1
                steps += 1
                if type(focus) is not Lambda:
                    break
            t = type(focus)
        if t is Lambda:
            v = Closure(focus, env)
        elif t is Case:
            if pending is None:
                v = focus.scrutinee
                tv = type(v)
                if tv is Var:
                    v = env.get(v.name, ext)
                    if v is None:
                        return out("stuck", reason=f"free variable {focus.scrutinee.name}")
                elif tv is not IntLit:
                    frames.append((_CASE, focus, env))
                    focus = v
                    continue
            else:
                v, pending = pending, None
            # (KCase)/(NCase): look v up in the table of alts
            if steps >= fuel:
                return out("out_of_fuel")
            alts = focus.alts
            table = tables.get(id(alts)) or tables.setdefault(id(alts), _case_table(alts))
            tv = type(v)
            if tv is CtorApp:
                hit = table.get((v.ctor, len(v.args))) or table[None]
            elif tv is IntLit:
                hit = table.get(v.value) or table[None]
            else:
                hit = None
            if hit is None:
                return out("stuck", reason=_no_match(v))
            focus, binders, whole = hit
            if len(binders) == 2:
                x, y = binders
                a, b = v.args
                env = {**env, x: a, y: b}
            elif binders:
                env = env.copy()
                env.update(zip(binders, v.args))
            elif whole is not None:
                env = {**env, whole: v}
            steps += 1
            continue
        elif t is PrimOp or t is Let:
            if t is PrimOp:
                frames.append((_PRIM_L, focus.op, focus.rhs, env))
                focus = focus.lhs
            else:
                frames.append((_LET, focus.binder, focus.body, env))
                focus = focus.bound
            t = type(focus)
            v = focus if t is IntLit else env.get(focus.name, ext) if t is Var else None
            if v is None:
                continue
        elif t is CtorApp:
            args = focus.args
            done = []  # the leading atoms are finished arguments
            for a in args:
                ta = type(a)
                a = a if ta is IntLit else env.get(a.name, ext) if ta is Var else None
                if a is None:
                    break
                done.append(a)
            i = len(done)
            if i == len(args):
                v = CtorApp(focus.ctor, tuple(done)) if i else focus
            elif type(args[i]) is CtorApp and _is_data(focus):
                v = focus
            else:
                frames.append((_CTOR, focus, done, env, steps))
                focus = args[i]
                continue
        elif t is Var:
            v = env.get(focus.name, ext)
            if v is None:
                return out("stuck", reason=f"free variable {focus.name}")
        elif t is IntLit:
            v = focus
        elif t is App or t is Global:
            continue
        else:
            return out("stuck", reason=f"cannot evaluate {t.__name__}")

        # hand v to the innermost frames until one yields a new focus
        while True:
            if not frames:
                return out("value", value=_read_back(v, ext))
            fr = frames.pop()
            tag = fr[0]
            if tag == _CASE:  # the case selects in the evaluation turn
                focus, env, pending = fr[1], fr[2], v
                break
            if tag <= _APP_ARG:
                if tag == _APP_ARG:
                    fun = fr[1]
                elif type(v) is not Closure:
                    return out("stuck", reason="application of a non-function value")
                else:
                    a = fr[1]
                    ta = type(a)
                    a = a if ta is IntLit else fr[2].get(a.name, ext) if ta is Var else None
                    if a is None:
                        frames.append((_APP_ARG, v))
                        focus, env = fr[1], fr[2]
                        break
                    fun, v = v, a
                if steps >= fuel:
                    return out("out_of_fuel")
                lam = fun.term
                focus, env = lam.body, {**fun.env, lam.param: v}
                calls += 1
                steps += 1
                break
            if tag <= _PRIM_R:
                if type(v) is not IntLit:
                    return out("stuck", reason="arithmetic on a non-integer")
                if tag == _PRIM_R:
                    n = fr[2]
                else:
                    r = fr[2]
                    if type(r) is Var:
                        r = fr[3].get(r.name, ext)
                    if type(r) is not IntLit:
                        frames.append((_PRIM_R, fr[1], v.value))
                        focus, env = fr[2], fr[3]
                        break
                    n, v = v.value, r
                if steps >= fuel:
                    return out("out_of_fuel")
                op, m = fr[1], v.value
                try:
                    v = IntLit(n + m if op == "+" else n - m if op == "-" else n * m if op == "*"
                               else apply_prim(op, n, m))  # which raises: no such operator
                except StuckError as e:
                    return out("stuck", reason=e.reason)
                steps += 1
                continue
            if tag == _CTOR:
                _, term, done_args, cenv, pushed = fr
                done_args.append(v)
                if len(done_args) < len(term.args):
                    frames.append(fr)
                    focus, env = term.args[len(done_args)], cenv
                    break
                v = CtorApp(term.ctor, tuple(done_args))
                if steps != pushed:  # some argument was no value yet
                    allocs += 1
                continue
            # _LET
            if steps >= fuel:
                return out("out_of_fuel")
            focus, env = fr[2], {**fr[3], fr[1]: v}
            steps += 1
            break


def eval_expr(e: Expression, G: Globals, fuel: int = 1_000_000) -> EvalOutcome:
    """Evaluate e against the definitions G; a free variable is stuck."""
    return _run(e, G, fuel, None)


# ---------------------------------------------------------------------------
# program-level helpers


def eval_program(
    program: Program, call: Expression, fuel: int = 1_000_000
) -> EvalOutcome:
    """Evaluate a closed entry call against a program, externals bound to
    the identity function.
    """
    missing = free_vars(call)
    if missing:
        raise StuckError(f"entry call has free variables {sorted(missing)}")
    return _run(call, program.defs, fuel, _EXTERNAL)
