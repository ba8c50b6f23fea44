"""The driving algorithm: symbolic call-by-value evaluation with
memoization, folding and generalization, followed by a letrec-lifting pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import is_annoying, strict_vars
from .generalize import embeds, split
from .semantics import apply_prim
from .syntax import (
    Alt,
    App,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    Expression,
    FreshSupply,
    GenRequest,
    Global,
    IntLit,
    IntPat,
    Key,
    Lambda,
    Let,
    Letrec,
    PrimOp,
    Program,
    Var,
    all_identifiers,
    canonical,
    children,
    fold_apps,
    fold_lambdas,
    free_vars,
    fun_names,
    is_linear,
    match_keys,
    rebuild,
    replace_global,
    select_alt,
    substitute,
    subterms,
    unfold_apps,
    unfold_lambdas,
    validate_program,
    weight,
)

Globals = dict[str, Expression]


class DriverError(Exception):
    """Internal invariant violation; corresponds to CLI exit code 3."""


class _NonHoleVars:
    """Membership view for the termination measure: every variable weighs 2
    except generalization holes, which weigh 1.  Renamed copies of program
    binders keep the weight of the variables they stand for.
    """

    def __init__(self, supply: FreshSupply):
        self.supply = supply

    def __contains__(self, name: str) -> bool:
        return name not in self.supply.hole_names


@dataclass(frozen=True)
class MemoEntry:
    name: str
    term: Expression
    key: Key  # canonical(term)

    @property
    def params(self) -> tuple[str, ...]:  # fv(term) in first-occurrence order
        return tuple(dict.fromkeys(self.key.free))


# driving context R ::= [] | R e | case R of alts | R (+) e | e (+) R,
# innermost frame last
RFrame = tuple
Rho = tuple[MemoEntry, ...]


def plug_r(context: list[RFrame], e: Expression) -> Expression:
    for fr in reversed(context):
        match fr:
            case ("arg", a):
                e = App(e, a)
            case ("case", alts):
                e = Case(e, alts)
            case ("prim_l", op, rhs):
                e = PrimOp(op, e, rhs)
            case ("prim_r", op, lhs):
                e = PrimOp(op, lhs, e)
    return e


def _markers(e: Expression) -> list[GenRequest]:
    return [t for t in subterms(e) if isinstance(t, GenRequest)]


Measure = tuple[int, int, int]


class DriveSession:
    def __init__(
        self,
        globals_: Globals,
        supply: FreshSupply,
        trace: Optional[Callable[[str], None]] = None,
        assert_measure: bool = False,
        explain_strict: Optional[Callable[[str], None]] = None,
    ):
        self.supply = supply
        self.trace = trace
        self.assert_measure = assert_measure
        self.explain_strict = explain_strict
        self.base_globals = globals_

    # ------------------------------------------------------------------

    def _measure(self, e: Expression, context: list[RFrame], rho: Rho) -> Measure:
        vars_ = _NonHoleVars(self.supply)
        whole = weight(plug_r(context, e), vars_)
        return (-len(rho), whole, weight(e, vars_))

    def _check_measure(
        self, parent: Optional[Measure], m: Measure, rule: str
    ) -> None:
        if parent is not None and not m < parent:
            raise DriverError(
                f"measure did not decrease at {rule}: {parent} -> {m}"
            )

    def _emit(self, rule: str, e: Expression, context: list[RFrame], rho: Rho) -> None:
        if self.trace is not None:
            w = weight(e, _NonHoleVars(self.supply))
            self.trace(f"{rule} w={w} rho={len(rho)} depth={len(context)}")

    # ------------------------------------------------------------------

    def drive(
        self,
        e: Expression,
        context: list[RFrame],
        G: Globals,
        rho: Rho,
        parent: Optional[Measure] = None,
    ) -> Expression:
        me: Optional[Measure] = None
        if self.assert_measure:
            me = self._measure(e, context, rho)
            self._check_measure(parent, me, "drive")

        def rec(
            e2: Expression, ctx2: list[RFrame], G2: Globals = None, rho2: Rho = None
        ) -> Expression:
            return self.drive(
                e2,
                ctx2,
                G if G2 is None else G2,
                rho if rho2 is None else rho2,
                me,
            )

        match e:
            case IntLit(_):  # R1
                self._emit("R1", e, context, rho)
                return plug_r(context, e)
            case Var(_):  # R2
                self._emit("R2", e, context, rho)
                return plug_r(context, e)
            case Global(_):  # R3
                self._emit("R3", e, context, rho)
                return self.drive_app(e.name, context, G, rho, me)
            case CtorApp(k, args):
                if not context:  # R4
                    self._emit("R4", e, context, rho)
                    return CtorApp(k, tuple(rec(a, []) for a in args))
                self._emit("R20", e, context, rho)
                return plug_r(context, e)
            case App(_, _):
                head, args = unfold_apps(e)
                if isinstance(head, Var):  # R5
                    self._emit("R5", e, context, rho)
                    return plug_r(
                        context, fold_apps(head, [rec(a, []) for a in args])
                    )
                if isinstance(head, Lambda):  # R9
                    self._emit("R9", e, context, rho)
                    return rec(self._beta_lets(head, args), context)
                self._emit("R10", e, context, rho)  # R10
                return rec(e.fun, context + [("arg", e.arg)])
            case Lambda(_, _):
                if not context:  # R6
                    self._emit("R6", e, context, rho)
                    params, body = unfold_lambdas(e)
                    return fold_lambdas(params, rec(body, []))
                self._emit("R20", e, context, rho)
                return plug_r(context, e)
            case PrimOp(op, IntLit(a), IntLit(b)):  # R7
                self._emit("R7", e, context, rho)
                return rec(plug_r(context, IntLit(apply_prim(op, a, b))), [])
            case PrimOp(op, lhs, rhs):  # R8
                self._emit("R8", e, context, rho)
                if is_annoying(e):
                    return plug_r(context, PrimOp(op, rec(lhs, []), rec(rhs, [])))
                if isinstance(lhs, IntLit) or is_annoying(lhs):
                    return rec(rhs, context + [("prim_r", op, lhs)])
                return rec(lhs, context + [("prim_l", op, rhs)])
            case Let(x, IntLit(_) as n, body):  # R11
                self._emit("R11", e, context, rho)
                return rec(plug_r(context, substitute({x: n}, body)), [])
            case Let(x, Var(_, fresh=False) | Global(_) as y, body):  # R12
                self._emit("R12", e, context, rho)
                return rec(plug_r(context, substitute({x: y}, body)), [])
            case Let(x, bound, body):  # R13
                self._emit("R13", e, context, rho)
                strict = strict_vars(body)
                if self.explain_strict is not None:
                    self.explain_strict(
                        f"let {x}: strict={{{', '.join(sorted(strict))}}} "
                        f"linear={is_linear(body, x)}"
                    )
                if x in strict and is_linear(body, x):
                    return rec(plug_r(context, substitute({x: bound}, body)), [])
                if any(x in free_vars(plug_r([fr], Var("_"))) for fr in context):
                    x2 = self.supply.var(x)
                    body = substitute({x: Var(x2)}, body)
                    x = x2
                return Let(x, rec(bound, []), rec(plug_r(context, body), []))
            case Letrec(g, rhs, body):  # R14
                self._emit("R14", e, context, rho)
                if g in G:
                    g2 = self.supply.fun()
                    rhs = replace_global(rhs, g, Global(g2))
                    body = replace_global(body, g, Global(g2))
                    g = g2
                result = rec(plug_r(context, body), [], {**G, g: rhs})
                if g in fun_names(result):
                    return Letrec(g, rhs, result)
                return result
            case Case(Var(_) as x, alts):  # R15
                self._emit("R15", e, context, rho)
                new_alts = []
                for alt in alts:
                    pat, info = self._freshen_pattern(alt.pattern)
                    body = substitute(info["rename"], alt.body)
                    branch = plug_r(context, body)
                    if info["value"] is not None:
                        branch = substitute({x.name: info["value"]}, branch)
                    new_alts.append(Alt(pat, rec(branch, [])))
                return Case(x, tuple(new_alts))
            case Case(CtorApp(_, args) as scrut, alts) if (
                alt := select_alt(scrut, alts)
            ) is not None:  # R16
                self._emit("R16", e, context, rho)
                match alt.pattern:
                    case CtorPat(_, binders):
                        fresh = [self.supply.var(b) for b in binders]
                        body = substitute(
                            {b: Var(f) for b, f in zip(binders, fresh)}, alt.body
                        )
                        term = plug_r(context, body)
                        for b, a in reversed(list(zip(fresh, args))):
                            term = Let(b, a, term)
                        return rec(term, [])
                    case DefaultPat(b):
                        binder = self.supply.var(b if b is not None else "u")
                        body = alt.body
                        if b is not None:
                            body = substitute({b: Var(binder)}, body)
                        return rec(Let(binder, scrut, plug_r(context, body)), [])
            case Case(IntLit() as scrut, alts) if (
                alt := select_alt(scrut, alts)
            ) is not None:  # R17
                self._emit("R17", e, context, rho)
                body = alt.body
                match alt.pattern:
                    case DefaultPat(b) if b is not None:
                        body = substitute({b: scrut}, body)
                return rec(plug_r(context, body), [])
            case Case(scrut, alts) if is_annoying(scrut):  # R18
                self._emit("R18", e, context, rho)
                new_alts = []
                for alt in alts:
                    pat, info = self._freshen_pattern(alt.pattern)
                    body = substitute(info["rename"], alt.body)
                    new_alts.append(Alt(pat, rec(plug_r(context, body), [])))
                return Case(rec(scrut, []), tuple(new_alts))
            case Case(scrut, alts):  # R19
                self._emit("R19", e, context, rho)
                return rec(scrut, context + [("case", alts)])
            case _:  # R20
                self._emit("R20", e, context, rho)
                return plug_r(context, e)

    # ------------------------------------------------------------------

    def _beta_lets(self, head: Lambda, args: list[Expression]) -> Expression:
        """(\\x..: f) e..  ->  let x1 = e1 in ... f, binders freshened."""
        params, body = unfold_lambdas(head)
        m = min(len(params), len(args))
        fresh = [self.supply.var(p) for p in params[:m]]
        inner = fold_lambdas(params[m:], body)
        inner = substitute(
            {p: Var(f) for p, f in zip(params[:m], fresh)}, inner
        )
        term = fold_apps(inner, args[m:])
        for b, a in reversed(list(zip(fresh, args[:m]))):
            term = Let(b, a, term)
        return term

    def _freshen_pattern(self, pat) -> tuple:
        """Rename pattern binders to fresh names; returns the new pattern,
        the renaming, and the positive-information expression (for R15).
        """
        match pat:
            case CtorPat(k, binders):
                fresh = [self.supply.var(b) for b in binders]
                rename = {b: Var(f) for b, f in zip(binders, fresh)}
                value = CtorApp(k, tuple(Var(f) for f in fresh))
                return CtorPat(k, tuple(fresh)), {"rename": rename, "value": value}
            case IntPat(n):
                return pat, {"rename": {}, "value": IntLit(n)}
            case DefaultPat(None):
                return pat, {"rename": {}, "value": None}
            case DefaultPat(b):
                f = self.supply.var(b)
                return DefaultPat(f), {"rename": {b: Var(f)}, "value": Var(f)}
            case _:
                raise DriverError(f"unknown pattern {pat!r}")

    # ------------------------------------------------------------------

    def drive_app(
        self,
        g: str,
        context: list[RFrame],
        G: Globals,
        rho: Rho,
        me: Optional[Measure],
    ) -> Expression:
        term = plug_r(context, Global(g))
        key = canonical(term)

        # (1) fold: the term is a renaming of something already driven
        for entry in reversed(rho):
            sigma = match_keys(entry.key, key)
            if sigma is not None:
                self._emit("Dapp1", term, context, rho)
                args = [Var(sigma[p]) for p in entry.params] or [IntLit(0)]
                return fold_apps(Global(entry.name), args)

        # (2) mutual embedding: ask the owning activation to generalize;
        # (3) otherwise generalize downwards against the nearest entry
        below = [entry for entry in reversed(rho) if embeds(entry.term, term)]
        for entry in below:
            if embeds(term, entry.term):
                self._emit("Dapp2", term, context, rho)
                return GenRequest(entry.name, term)
        if below:
            self._emit("Dapp3", term, context, rho)
            return self._generalize(term, below[0].term, G, rho, me)

        # (4) memoize, unfold and drive
        v = G.get(g)
        if v is None:
            raise DriverError(f"undefined function {g} during driving")
        h = self.supply.fun()
        entry = MemoEntry(h, term, key)
        self._emit("Dapp4", term, context, rho)
        e = self.drive(plug_r(context, v), [], G, rho + (entry,), me)

        marks = _markers(e)
        mine = [m for m in marks if m.owner == h]
        if mine:  # (4a) upwards generalization
            self._emit("Dapp4a", term, context, rho)
            return self._generalize(term, mine[0].term, G, rho, me)
        if marks:  # a pending request for an enclosing activation
            return e
        if h in fun_names(e):  # (4b)
            self._emit("Dapp4b", term, context, rho)
            lam_params = list(entry.params) or [self.supply.var("u")]
            call_args = [Var(p) for p in entry.params] or [IntLit(0)]
            return Letrec(
                h, fold_lambdas(lam_params, e), fold_apps(Global(h), call_args)
            )
        return e  # (4c)

    def _generalize(
        self,
        term: Expression,
        against: Expression,
        G: Globals,
        rho: Rho,
        me: Optional[Measure],
    ) -> Expression:
        common, parts, holes = split(term, against, self.supply)
        driven_parts = [self.drive(p, [], G, rho, me) for p in parts]
        driven_common = self.drive(common, [], G, rho, me)
        return substitute(dict(zip(holes, driven_parts)), driven_common)


# ---------------------------------------------------------------------------
# residual post-processing


def lift_letrecs(e: Expression, lifted: list[tuple[str, Expression]]) -> Expression:
    """Hoist closed letrec definitions, innermost first."""
    e = rebuild(e, [lift_letrecs(c, lifted) for c in children(e)])
    if isinstance(e, Letrec) and not free_vars(e.rhs):
        lifted.append((e.fun, e.rhs))
        return e.body
    return e


def supercompile(
    program: Program,
    lift: bool = True,
    trace: Optional[Callable[[str], None]] = None,
    assert_measure: bool = False,
    explain_strict: Optional[Callable[[str], None]] = None,
) -> Program:
    """Drive the entry definition and rebuild a whole program, by default
    hoisting residual letrec definitions to the top level.
    """
    validate_program(program)
    if program.entry not in program.defs:
        raise DriverError(f"no entry definition {program.entry!r}")
    reserved: set[str] = set(program.defs)
    for body in program.defs.values():
        reserved |= all_identifiers(body)
    supply = FreshSupply(reserved)
    session = DriveSession(
        dict(program.defs),
        supply,
        trace=trace,
        assert_measure=assert_measure,
        explain_strict=explain_strict,
    )
    params, body = unfold_lambdas(program.defs[program.entry])
    residual = session.drive(body, [], dict(program.defs), ())
    if _markers(residual):
        raise DriverError("generalization request escaped its activation")

    lifted: list[tuple[str, Expression]] = []
    if lift:
        residual = lift_letrecs(residual, lifted)

    entry_def = fold_lambdas(params, residual)
    defs: dict[str, Expression] = {}
    for name, rhs in lifted:
        defs[name] = rhs

    # keep any original definitions the residual still references
    needed = fun_names(entry_def)
    for _, rhs in lifted:
        needed |= fun_names(rhs)
    needed -= set(defs)
    worklist = [n for n in needed if n != program.entry]
    kept: dict[str, Expression] = {}
    while worklist:
        n = worklist.pop()
        if n in kept or n in defs:
            continue
        if n not in program.defs:
            raise DriverError(f"residual references unknown function {n}")
        kept[n] = program.defs[n]
        worklist.extend(
            m for m in fun_names(kept[n]) if m not in kept and m not in defs
        )

    out: dict[str, Expression] = {}
    for name in program.defs:  # original order for retained definitions
        if name in kept:
            out[name] = kept[name]
    for name, rhs in lifted:
        out[name] = rhs
    out[program.entry] = entry_def
    return Program(defs=out, entry=program.entry)


# ---------------------------------------------------------------------------
# program-level alpha equivalence (for golden comparisons)


def canonical_program(p: Program) -> tuple:
    """The canonical keys of the definitions reachable from the entry, in
    discovery order, with function symbols numbered in that order.
    """
    ids: dict[str, int] = {}
    order = [p.entry]
    out = []
    for name in order:  # order grows as functions are discovered
        shape, free, globals_ = canonical(p.defs[name])
        for g in globals_:
            if g not in ids:
                ids[g] = len(ids)
                order.append(g)
        out.append((shape, free, tuple(ids[g] for g in globals_)))
    return tuple(out)


def program_alpha_eq(p1: Program, p2: Program) -> bool:
    return canonical_program(p1) == canonical_program(p2)
