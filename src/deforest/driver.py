"""The driving algorithm: symbolic call-by-value evaluation with
memoization, folding and generalization.  A recursive activation becomes a
top-level definition in the session's table when it completes; `supercompile`
assembles the residual program from the definitions that its entry reaches.
A source letrec needs no rule: the parser has made it a top-level definition.

A term folds into an ancestor activation (the memo stack `rho`) and, failing that,
into any completed recursive activation: the global memo of Bolingbroke &
Peyton Jones, "Supercompilation by evaluation" (2010).  Under call-by-value,
a call of a completed definition on variables behaves as the term it was
driven from, so the fold loses no divergence; it spares driving the term
again in every case branch that meets it.  The whistle looks at `rho` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Callable, Optional, Sequence

from .analysis import demand, is_annoying, strict_vars
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
    Global,
    IntLit,
    IntPat,
    Key,
    Lambda,
    Let,
    PrimOp,
    Program,
    SyntaxError_,
    Var,
    canonical,
    canonical_symbols,
    children,
    fold_apps,
    fold_lambdas,
    free_vars,
    fun_names,
    match_keys,
    rebuild,
    select_alt,
    substitute,
    unfold_apps,
    unfold_lambdas,
    validate_program,
    weight,
)

Globals = dict[str, Expression]


class DriverError(Exception):
    """Internal invariant violation; corresponds to CLI exit code 3."""


class _Rollback(DriverError):
    """Dapp2: unwind the drive to the activation memoized as `owner`, which
    generalizes against `term`; escaping every activation is an internal error.
    """

    def __init__(self, owner: str, term: Expression):
        super().__init__(f"generalization request for {owner} escaped its activation")
        self.owner = owner
        self.term = term


@dataclass
class MemoEntry:
    """An activation of Dapp4; `DriveSession.folds` logs the folds into it."""

    name: str
    term: Expression
    key: Key  # canonical(term)
    pre: list  # the whistle's symbols of term's nodes, in preorder, for `_may_embed`
    post: list  # the same, in postorder
    body: Optional[Expression] = None  # the residual definition, set by Dapp4b

    @property
    def params(self) -> tuple[str, ...]:  # fv(term) in first-occurrence order
        return tuple(dict.fromkeys(self.key.free))


# driving context R ::= [] | R e | case R of alts | R (+) e | e (+) R,
# innermost frame last
RFrame = tuple


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


def _substitute_frame(m: dict[str, Expression], fr: RFrame) -> RFrame:
    """fr with m substituted into its terms, as if into plug_r([fr], e)."""
    if fr[0] == "case":
        return ("case", substitute(m, Case(IntLit(0), fr[1])).alts)
    return (*fr[:-1], substitute(m, fr[-1]))


def _refocus(e: Expression, context: list[RFrame]) -> tuple[Expression, list[RFrame]]:
    """Where driving goes on after a rewrite leaves e in the hole of
    context.  The innermost frame goes back on e while e is a value (an
    integer, a constructor or a lambda), annoying, or an applied lambda,
    since the rules for those look at the frame around them.  Any other e
    keeps the frames that remain: R8, R10 and R19 would push exactly those
    again if e were plugged into them.
    """
    i = len(context)
    while i:
        head = e
        while type(head) is App:
            head = head.fun
        if not (type(e) in (IntLit, CtorApp, Var) or type(head) is Lambda or is_annoying(e)):
            break
        i -= 1
        e = plug_r(context[i : i + 1], e)
    return e, context[:i]


Measure = tuple[int, int, int]


class DriveSession:
    """One drive of an entry definition, and the one record of it.  `G`
    holds the program's definitions, which Dapp4 unfolds and nothing
    changes; `externals` holds their free variables (`supercompile` fills
    it).  No binder that driving emits has the name of an external or of a
    definition, so none captures an external or hides a function symbol.
    `rho` is the memo stack of the activations being driven, innermost
    last; Dapp4 pushes and pops it.  `folds` logs the entries of `rho` that
    Dapp1 folds hit, by name: an activation is recursive if it is logged
    during its own drive.  `table` maps the name of each finished recursive activation to
    its memo entry, whose `body` is the residual definition, in the order
    they completed; `done` indexes the same entries by their key's (shape,
    globals), for the global fold.  A rollback takes the entries and folds
    of the abandoned drive out of all three, so a finished drive has logged
    exactly the names in `table`.  `holes` names the generalization holes,
    which `_copied` does not copy and the measure weighs 1.
    """

    def __init__(
        self,
        supply: FreshSupply,
        G: Globals,
        trace: Optional[Callable[[str], None]] = None,
        assert_measure: bool = False,
        explain_strict: Optional[Callable[[str], None]] = None,
    ):
        self.supply = supply
        self.G = G
        self.trace = trace
        self.assert_measure = assert_measure
        self.explain_strict = explain_strict
        self.externals: set[str] = set()
        self.rho: list[MemoEntry] = []
        self.table: dict[str, MemoEntry] = {}
        self.done: dict[tuple, list[MemoEntry]] = {}
        self.folds: list[str] = []
        self.holes: set[str] = set()

    # ------------------------------------------------------------------

    def _measure(self, e: Expression, context: list[RFrame]) -> Measure:
        return (-len(self.rho), weight(plug_r(context, e), self.holes), weight(e, self.holes))

    def _emit(self, rule: str, e: Expression, context: list[RFrame], hit="", where="rho") -> None:
        """One `--trace` line: the rule, the focus's weight, the memo depth
        and the context depth, then the memo entry that a fold or a whistle
        hit and where it was found, as `-> h4 (table)` or `-> h1 (rho)`.
        """
        if self.trace is not None:
            w = weight(e, self.holes)
            via = f" -> {hit} ({where})" if hit else ""
            self.trace(f"{rule} w={w} rho={len(self.rho)} depth={len(context)}{via}")

    # ------------------------------------------------------------------

    def drive(
        self, e: Expression, context: list[RFrame], parent: Optional[Measure] = None
    ) -> Expression:
        """The residual of plug_r(context, e).  A rule that rewrites the focus
        goes round the loop in the context that `_refocus` leaves it; only
        the rules that build around their results recurse, and Dapp2 unwinds
        by raising `_Rollback`.  Under assert_measure each pass of the loop
        must decrease the measure of the one before.
        """
        me = parent
        while True:
            if self.assert_measure:
                m = self._measure(e, context)
                if me is not None and not m < me:
                    raise DriverError(f"measure did not decrease at drive: {me} -> {m}")
                me = m
            t = type(e)
            if t is IntLit or t is Var:  # R1, R2
                self._emit("R1" if t is IntLit else "R2", e, context)
                return plug_r(context, e)
            if t is Global:  # R3
                self._emit("R3", e, context)
                return self.drive_app(e.name, context, me)
            if (t is App or t is PrimOp) and is_annoying(e):  # R5, an annoying R8
                self._emit("R5" if t is App else "R8", e, context)
                return plug_r(context, rebuild(e, [self.drive(c, [], me) for c in children(e)]))
            if t is App:
                head, args = unfold_apps(e)
                if type(head) is Lambda:  # R9, with R11/R12 on its lets
                    self._emit("R9", e, context)
                    params, body = unfold_lambdas(head)
                    n = min(len(params), len(args))
                    body = fold_lambdas(params[n:], body)
                    lets = self._fresh_lets(params[:n], args[:n], body, args[n:])
                    e, context = _refocus(lets, context)
                    continue
                self._emit("R10", e, context)  # R10
                e, context = e.fun, context + [("arg", e.arg)]
            elif t is PrimOp:
                op, lhs, rhs = e.op, e.lhs, e.rhs
                if type(lhs) is IntLit and type(rhs) is IntLit:  # R7
                    self._emit("R7", e, context)
                    e, context = _refocus(IntLit(apply_prim(op, lhs.value, rhs.value)), context)
                    continue
                self._emit("R8", e, context)  # R8
                if type(lhs) is IntLit or is_annoying(lhs):
                    e, context = rhs, context + [("prim_r", op, lhs)]
                else:
                    e, context = lhs, context + [("prim_l", op, rhs)]
            elif t is Let:
                x, v, body = e.binder, e.bound, e.body
                if not self._copied(v):
                    self._emit("R13", e, context)  # R13
                    strict, uses = demand(body, x)
                    if self.explain_strict is not None:
                        self.explain_strict(
                            f"let {x}: strict={{{', '.join(sorted(strict_vars(body)))}}} "
                            f"linear={uses <= 1}"
                        )
                    if strict and uses <= 1:
                        e, context = _refocus(substitute({x: v}, body), context)
                        continue
                    x, body = self._rebind(x, body, free_vars(plug_r(context, IntLit(0))))
                    v = self.drive(v, [], me)
                    if not self._copied(v):
                        return Let(x, v, self.drive(*_refocus(body, context), me))
                # R11, R12 on a let that R9 or R16 did not make (from the
                # source, say), or whose bound term R13 drove to a value
                self._emit("R11" if type(v) is IntLit else "R12", e, context)
                e, context = _refocus(substitute({x: v}, body), context)
            elif t is Case:
                scrut, alts = e.scrutinee, e.alts
                ts = type(scrut)
                alt = select_alt(scrut, alts)
                if alt is not None and ts is CtorApp:  # R16, with R11/R12 on its lets as in R9
                    self._emit("R16", e, context)
                    if type(alt.pattern) is CtorPat:
                        binders, values = alt.pattern.binders, scrut.args
                    else:  # a default binds the whole value
                        binders, values = (alt.pattern.binder,), (scrut,)
                    e, context = _refocus(self._fresh_lets(binders, values, alt.body), context)
                elif alt is not None:  # R17
                    self._emit("R17", e, context)
                    body = alt.body
                    if type(alt.pattern) is DefaultPat and alt.pattern.binder is not None:
                        body = substitute({alt.pattern.binder: scrut}, body)
                    e, context = _refocus(body, context)
                elif is_annoying(scrut):  # R15 on a variable, R18
                    var = ts is Var
                    self._emit("R15" if var else "R18", e, context)
                    new_alts = []
                    for alt in alts:
                        pat, rename, value = self._freshen_pattern(alt.pattern)
                        frames = context
                        if var and value is not None:  # R15's positive information
                            frames = [_substitute_frame({scrut.name: value}, fr) for fr in context]
                            rename = {scrut.name: value, **rename}  # a shadowing binder wins
                        branch = plug_r(frames, substitute(rename, alt.body))
                        new_alts.append(Alt(pat, self.drive(branch, [], me)))
                    if not var:
                        scrut = self.drive(scrut, [], me)
                    return Case(scrut, tuple(new_alts))
                else:  # R19
                    self._emit("R19", e, context)
                    e, context = scrut, context + [("case", alts)]
            elif t is CtorApp and not context:  # R4
                self._emit("R4", e, context)
                return rebuild(e, [self.drive(c, [], me) for c in children(e)])
            elif t is Lambda and not context:  # R6
                self._emit("R6", e, context)
                x, body = self._rebind(e.param, e.body)
                return Lambda(x, self.drive(body, [], me))
            else:  # R20, and R4 or R6 in a context
                self._emit("R20", e, context)
                return plug_r(context, e)

    # ------------------------------------------------------------------

    def _copied(self, v: Expression) -> bool:
        """v is a value that costs nothing to copy, so a binder's uses take v
        in its place: the test of R11/R12, of R13 on the bound term it drove,
        and of `_fresh_lets`.  A generalization hole is not copied, so its
        filling is not duplicated, and a function symbol is copied only when
        its definition is a lambda: a definition without parameters may
        diverge, and a copy that is never used would drop that.
        """
        t = type(v)
        if t is Global:
            return type(self.G.get(v.name)) is Lambda
        return t is IntLit or t is CtorApp and not v.args or t is Var and v.name not in self.holes

    def _rebind(self, x: str, body: Expression, clash=()) -> tuple[str, Expression]:
        """A binder x over body as driving emits it: renamed to a fresh name
        if it would capture an external, which an unfolding may put under
        it, if it has the name of a definition, a call of which an unfolding
        may put under it and the printed residual would read back as the
        variable, or if it is a name in clash.
        """
        if x in self.externals or x in self.G or x in clash:
            x2 = self.supply.var(x)
            return x2, substitute({x: Var(x2)}, body)
        return x, body

    def _fresh_lets(
        self, binders: Sequence, values: Sequence, body: Expression, args: Sequence = ()
    ) -> Expression:
        """let b1' = v1 in ... let bn' = vn in body args, each binder renamed
        in body to a fresh name (a wildcard None binds a fresh "u"), except
        that a value R11/R12 would copy (`_copied`) takes its binder's place
        in that walk; its name is still minted.
        """
        m, lets = {}, []
        for b, v in zip(binders, values):
            f = Var(self.supply.var(b if b is not None else "u"))
            if not self._copied(v):
                lets.append((f.name, v))
                v = f
            if b is not None:
                m[b] = v
        term = fold_apps(substitute(m, body), args)
        for f, v in reversed(lets):
            term = Let(f, v, term)
        return term

    def _freshen_pattern(self, pat) -> tuple:
        """Rename pattern binders to fresh names: (new pattern, renaming,
        positive-information value or None), the value for R15.
        """
        match pat:
            case CtorPat(k, binders):
                fresh = [self.supply.var(b) for b in binders]
                rename = {b: Var(f) for b, f in zip(binders, fresh)}
                return CtorPat(k, tuple(fresh)), rename, CtorApp(k, tuple(map(Var, fresh)))
            case IntPat(n):
                return pat, {}, IntLit(n)
            case DefaultPat(None):
                return pat, {}, None
            case DefaultPat(b):
                f = self.supply.var(b)
                return DefaultPat(f), {b: Var(f)}, Var(f)
            case _:
                raise DriverError(f"unknown pattern {pat!r}")

    # ------------------------------------------------------------------

    def drive_app(self, g: str, context: list[RFrame], me: Optional[Measure]) -> Expression:
        """Rules Dapp1-Dapp4 for a call of g in context, tried in this order:
        fold into an ancestor in rho (Dapp1), fold into a completed
        definition of the table `done` (Dapp1, the global fold), the whistle
        against rho (Dapp2, Dapp3), and otherwise memoize and unfold (Dapp4).
        Ancestors come first, and the whistle looks at rho only.  Dapp4
        makes a definition (Dapp4b) when `folds` logged a fold into it
        during its drive.  Dapp2 raises `_Rollback`, which abandons every
        activation up to the one it names; that one drops the abandoned
        drive's definitions and folds, and generalizes (Dapp4a).
        """
        term = plug_r(context, Global(g))
        key, pre, post = canonical_symbols(term)

        # (1) fold: the term is a renaming of an ancestor or of a completed
        # recursive activation, so it becomes a call of that one's definition
        finished = self.done.get(_table_key(key), ())
        for entries, where in ((reversed(self.rho), "rho"), (finished, "table")):
            for entry in entries:
                sigma = match_keys(entry.key, key)
                if sigma is not None:
                    self._emit("Dapp1", term, context, entry.name, where)
                    if where == "rho":
                        self.folds.append(entry.name)
                    return _call(entry, sigma)

        # (2) mutual embedding: ask the owning activation to generalize;
        # (3) otherwise generalize downwards against the nearest entry
        new = MemoEntry("", term, key, pre, post)  # named at (4)
        below = [
            entry
            for entry in reversed(self.rho)
            if _may_embed(entry, new) and embeds(entry.term, term)
        ]
        for entry in below:
            if _may_embed(new, entry) and embeds(term, entry.term):
                self._emit("Dapp2", term, context, entry.name)
                raise _Rollback(entry.name, term)
        if below:
            self._emit("Dapp3", term, context, below[0].name)
            return self._generalize(term, below[0].term, me)

        # (4) memoize, unfold and drive
        v = self.G.get(g)
        if v is None:
            raise DriverError(f"undefined function {g} during driving")
        h = new.name = self.supply.fun()
        self._emit("Dapp4", term, context)
        mark, logged = len(self.table), len(self.folds)
        self.rho.append(new)
        try:
            e = self.drive(*_refocus(v, context), me)
        except _Rollback as r:  # (4a) upwards generalization
            self.rho.pop()
            if r.owner != h:
                raise
            # definitions completed in the abandoned drive may call it, and
            # the folds made in it are gone with its residual
            while len(self.table) > mark:
                _, done = self.table.popitem()
                self.done[_table_key(done.key)].remove(done)
            del self.folds[logged:]
            self._emit("Dapp4a", term, context, h)
            return self._generalize(term, r.term, me)
        self.rho.pop()
        if h in self.folds[logged:]:  # (4b) something folded into h
            self._emit("Dapp4b", term, context)
            new.body = fold_lambdas(new.params, e)
            self.table[h] = new
            self.done.setdefault(_table_key(key), []).append(new)
            return _call(new, {p: p for p in new.params})
        return e  # (4c)

    def _generalize(
        self, term: Expression, against: Expression, me: Optional[Measure]
    ) -> Expression:
        common, parts, holes = split(term, against, self.supply)
        self.holes.update(holes)
        fill = dict(zip(holes, [self.drive(p, [], me) for p in parts]))
        try:
            driven_common = self.drive(common, [], me)
        except _Rollback as r:  # a request from the common term may name holes
            r.term = substitute(fill, r.term)
            raise
        return substitute(fill, driven_common)


def _may_embed(a: MemoEntry, b: MemoEntry) -> bool:
    """A test that a's term passes wherever it embeds in b's, made before
    `embeds`: a's symbols are a subsequence of b's in preorder and in
    postorder.  An embedding keeps both ancestor order (coupling and diving)
    and left-to-right order (coupling pairs children in order), and so both
    orders of the nodes."""
    for xs, ys in ((a.pre, b.pre), (a.post, b.post)):
        rest = iter(ys)
        for s in xs:
            if s not in rest:
                return False
    return True


def _table_key(key: Key) -> tuple:
    """What a renaming keeps of a key: all but the free-variable names."""
    return key.shape, key.globals


def _call(entry: MemoEntry, sigma: dict[str, str]) -> Expression:
    """The call of entry's definition on the renaming sigma of its parameters;
    an entry without parameters is a definition without them, called bare.
    """
    return fold_apps(Global(entry.name), [Var(sigma[p]) for p in entry.params])


def _rename_calls(e: Expression, old: str, new: str) -> Expression:
    """e with each occurrence of the function symbol old made one of new;
    only the paths to them are rebuilt.
    """
    t = type(e)
    if t is Global:
        return Global(new) if e.name == old else e
    if t is App:  # the spine of a call, inline: most nodes of a residual body
        fun, arg = _rename_calls(e.fun, old, new), _rename_calls(e.arg, old, new)
        return e if fun is e.fun and arg is e.arg else App(fun, arg)
    if t is Var or t is IntLit:
        return e
    kids = children(e)
    renamed = [_rename_calls(c, old, new) for c in kids]
    return rebuild(e, renamed) if any(map(is_not, kids, renamed)) else e


def supercompile(
    program: Program,
    trace: Optional[Callable[[str], None]] = None,
    assert_measure: bool = False,
    explain_strict: Optional[Callable[[str], None]] = None,
) -> Program:
    """Drive the entry definition and assemble a whole program: the
    definitions that one walk from the new entry reaches, in the order of the
    original definitions, the session's table, the entry.  An entry whose
    residual only calls a table definition h on its own parameters, in order,
    takes h's definition instead, and the walk makes each call of h a call of
    the entry, which spares each entry call a call.  The entry's name occurs
    nowhere in the source but as its definition's name, so no binder captures
    those calls when the residual is printed and read back.
    """
    identifiers, externals = validate_program(program)
    if program.entry not in program.defs:
        raise SyntaxError_(f"no entry definition {program.entry!r}")
    session = DriveSession(
        FreshSupply(identifiers | program.defs.keys()),
        program.defs,
        trace=trace,
        assert_measure=assert_measure,
        explain_strict=explain_strict,
    )
    session.externals = externals
    params, body = unfold_lambdas(program.defs[program.entry])
    for i, x in enumerate(params):
        params[i], body = session._rebind(x, body)
    residual = session.drive(body, [])
    defs = {**program.defs, **{h: entry.body for h, entry in session.table.items()}}
    del defs[program.entry]
    head, args = unfold_apps(residual)
    h = head.name if type(head) is Global else None
    target = session.table.get(h)
    if (  # the entry forwards its parameters, distinct and in order, to target
        target is not None
        and len(target.params) == len(params) == len(set(params))
        and args == [Var(p) for p in params]
        and program.entry not in identifiers
    ):
        defs[program.entry] = defs.pop(h)
    else:
        h = None  # no call is renamed
        defs[program.entry] = fold_lambdas(params, residual)
    kept: dict[str, Optional[Expression]] = {}  # None for a name without a definition
    stack = [program.entry]
    while stack:
        n = stack.pop()
        if n not in kept:
            body = kept[n] = defs.get(n)
            called = fun_names(body) if body is not None else set()
            if h in called:
                kept[n] = _rename_calls(body, h, program.entry)
                called.discard(h)
            stack.extend(called)
    if unknown := sorted(n for n, body in kept.items() if body is None):
        raise DriverError(f"residual references unknown functions {unknown}")
    return Program({n: kept[n] for n in defs if n in kept}, program.entry)


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
