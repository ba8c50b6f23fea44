"""Core language AST and the syntactic operations everything else builds on.

Expressions are immutable; all functions here return fresh terms and never
mutate their arguments.

"Modulo renaming" (`canonical`, and so `alpha_eq`, `match_renaming` and the
golden comparison) allows a consistent renaming of bound variables, pattern
binders and letrec symbols.  Every default alternative is one binder slot,
so `x -> e` with x unused equals `_ -> e`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

FIX_NAME = "fix"


class Expression:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntLit(Expression):
    value: int


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str
    # True only for variables minted by the generalization machinery; such
    # variables must not be copy-propagated by the driver (rule R12's guard).
    fresh: bool = field(default=False, compare=False)


@dataclass(frozen=True, slots=True)
class Global(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class App(Expression):
    fun: Expression
    arg: Expression


@dataclass(frozen=True, slots=True)
class Lambda(Expression):
    param: str
    body: Expression


@dataclass(frozen=True, slots=True)
class CtorApp(Expression):
    ctor: str
    args: tuple[Expression, ...]


@dataclass(frozen=True, slots=True)
class PrimOp(Expression):
    op: str  # one of + - *
    lhs: Expression
    rhs: Expression


class Pattern:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntPat(Pattern):
    value: int


@dataclass(frozen=True, slots=True)
class CtorPat(Pattern):
    ctor: str
    binders: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class DefaultPat(Pattern):
    binder: Optional[str]  # None for a wildcard


@dataclass(frozen=True, slots=True)
class Alt:
    pattern: Pattern
    body: Expression


@dataclass(frozen=True, slots=True)
class Case(Expression):
    scrutinee: Expression
    alts: tuple[Alt, ...]


@dataclass(frozen=True, slots=True)
class Let(Expression):
    binder: str
    bound: Expression
    body: Expression


@dataclass(frozen=True, slots=True)
class Letrec(Expression):
    fun: str
    rhs: Expression
    body: Expression


@dataclass(frozen=True, slots=True)
class GenRequest(Expression):
    """Driver-internal: a residual position requesting generalization at the
    activation that owns `owner`.  Never appears in parsed or final programs.
    """

    owner: str
    term: Expression


@dataclass(frozen=True)
class Program:
    defs: dict[str, Expression]
    entry: str = "main"


NIL = "Nil"
CONS = "Cons"

ARITH_OPS = ("+", "-", "*")


class SyntaxError_(Exception):
    pass


# ---------------------------------------------------------------------------
# binder helpers


def pattern_binders(p: Pattern) -> tuple[str, ...]:
    match p:
        case CtorPat(_, binders):
            return binders
        case DefaultPat(b):
            return (b,) if b is not None else ()
        case _:
            return ()


def select_alt(v: Expression, alts: tuple[Alt, ...]) -> Optional[Alt]:
    """The alternative a data value selects: the first constructor pattern
    with its name and arity, or integer pattern with its value, else the
    default alternative; None when nothing matches or v is not data.
    """
    if isinstance(v, CtorApp):
        k, arity = v.ctor, len(v.args)
        for alt in alts:
            p = alt.pattern
            if type(p) is CtorPat and p.ctor == k and len(p.binders) == arity:
                return alt
    elif isinstance(v, IntLit):
        n = v.value
        for alt in alts:
            p = alt.pattern
            if type(p) is IntPat and p.value == n:
                return alt
    else:
        return None
    for alt in alts:
        if type(alt.pattern) is DefaultPat:
            return alt
    return None


def unfold_lambdas(e: Expression) -> tuple[list[str], Expression]:
    """n-ary view of nested lambdas: (params, body)."""
    params = []
    while isinstance(e, Lambda):
        params.append(e.param)
        e = e.body
    return params, e


def fold_lambdas(params: Iterable[str], body: Expression) -> Expression:
    for p in reversed(list(params)):
        body = Lambda(p, body)
    return body


def unfold_apps(e: Expression) -> tuple[Expression, list[Expression]]:
    """n-ary view of an application spine: (head, args)."""
    args = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fun
    args.reverse()
    return e, args


def fold_apps(head: Expression, args: Iterable[Expression]) -> Expression:
    for a in args:
        head = App(head, a)
    return head


def subterms(e: Expression) -> Iterator[Expression]:
    """All subterms of e, preorder, including e itself."""
    stack = [e]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(children(t)))


def children(e: Expression) -> tuple[Expression, ...]:
    match e:
        case App(f, a):
            return (f, a)
        case Lambda(_, b):
            return (b,)
        case CtorApp(_, args):
            return args
        case PrimOp(_, l, r):
            return (l, r)
        case Case(scrut, alts):
            return (scrut,) + tuple(a.body for a in alts)
        case Let(_, bound, body):
            return (bound, body)
        case Letrec(_, rhs, body):
            return (rhs, body)
        case GenRequest(_, t):
            return (t,)
        case _:
            return ()


def rebuild(e: Expression, kids: Sequence[Expression]) -> Expression:
    """The inverse of `children`: e with its children replaced by kids."""
    if not kids:
        return e
    match e:
        case App():
            return App(kids[0], kids[1])
        case Lambda(p, _):
            return Lambda(p, kids[0])
        case CtorApp(k, _):
            return CtorApp(k, tuple(kids))
        case PrimOp(op, _, _):
            return PrimOp(op, kids[0], kids[1])
        case Case(_, alts):
            return Case(kids[0], tuple(Alt(a.pattern, b) for a, b in zip(alts, kids[1:])))
        case Let(x, _, _):
            return Let(x, kids[0], kids[1])
        case Letrec(g, _, _):
            return Letrec(g, kids[0], kids[1])
        case GenRequest(owner, _):
            return GenRequest(owner, kids[0])


def replace_global(e: Expression, name: str, new: Expression) -> Expression:
    """Replace the free occurrences of Global(name) by new; a letrec that
    binds name shadows it.
    """
    match e:
        case Global(g) if g == name:
            return new
        case Letrec(g, _, _) if g == name:
            return e
    return rebuild(e, [replace_global(c, name, new) for c in children(e)])


# ---------------------------------------------------------------------------
# fresh names


class FreshSupply:
    """Deterministic source of names that collide with nothing reserved and
    nothing issued before; one counter per base name.
    """

    def __init__(self, reserved: set[str]):
        self.reserved = set(reserved)
        self.counters: dict[str, int] = {}
        self.hole_names: set[str] = set()

    def _mint(self, base: str) -> str:
        n = self.counters.get(base, 0)
        while True:
            n += 1
            name = f"{base}{n}"
            if name not in self.reserved:
                self.counters[base] = n
                self.reserved.add(name)
                return name

    def var(self, base: str = "v") -> str:
        return self._mint(base)

    def fresh_var(self, base: str = "z") -> Var:
        """A generalization hole; the driver's rule R12 refuses to propagate
        these.
        """
        name = self._mint(base)
        self.hole_names.add(name)
        return Var(name, fresh=True)

    def fun(self) -> str:
        return self._mint("h")


# ---------------------------------------------------------------------------
# free variables / function names


def free_vars(e: Expression) -> set[str]:
    return set(free_vars_ordered(e))


def free_vars_ordered(e: Expression) -> list[str]:
    """Free variables in order of first occurrence (left to right)."""
    out: dict[str, None] = {}

    def go(e: Expression, bound: frozenset[str]) -> None:
        match e:
            case Var(name):
                if name not in bound:
                    out.setdefault(name)
            case IntLit() | Global():
                pass
            case App(f, a):
                go(f, bound)
                go(a, bound)
            case Lambda(p, b):
                go(b, bound | {p})
            case CtorApp(_, args):
                for a in args:
                    go(a, bound)
            case PrimOp(_, l, r):
                go(l, bound)
                go(r, bound)
            case Case(scrut, alts):
                go(scrut, bound)
                for alt in alts:
                    go(alt.body, bound | set(pattern_binders(alt.pattern)))
            case Let(x, bnd, body):
                go(bnd, bound)
                go(body, bound | {x})
            case Letrec(_, rhs, body):
                go(rhs, bound)
                go(body, bound)
            case GenRequest(_, t):
                go(t, bound)
            case _:
                raise SyntaxError_(f"unknown expression {e!r}")

    go(e, frozenset())
    return list(out)


def fun_names(e: Expression) -> set[str]:
    out: set[str] = set()

    def go(e: Expression, hidden: frozenset[str]) -> None:
        match e:
            case Global(name):
                if name not in hidden:
                    out.add(name)
            case Letrec(g, rhs, body):
                go(rhs, hidden | {g})
                go(body, hidden | {g})
            case _:
                for c in children(e):
                    go(c, hidden)

    go(e, frozenset())
    return out


# ---------------------------------------------------------------------------
# substitution


def _fresh_variant(base: str, avoid: set[str]) -> str:
    candidate = base + "'"
    n = 1
    while candidate in avoid:
        candidate = f"{base}'{n}"
        n += 1
    return candidate


def substitute(mapping: dict[str, Expression], e: Expression) -> Expression:
    """Simultaneous capture-avoiding substitution of expressions for free
    variables.  Binders are renamed (deterministically, with primes) only when
    they would capture a free variable of a substituted expression.
    """
    if not mapping:
        return e
    if all(not free_vars(v) for v in mapping.values()):
        return _substitute_closed(mapping, e)

    def adjust(
        binders: tuple[str, ...], body_parts: list[Expression], m: dict[str, Expression]
    ) -> tuple[list[str], list[Expression], dict[str, Expression]]:
        """Drop shadowed entries, rename binders that would capture."""
        live = {
            x: v
            for x, v in m.items()
            if x not in binders and any(x in free_vars(b) for b in body_parts)
        }
        if not live:
            return list(binders), body_parts, {}
        value_fvs: set[str] = set()
        for v in live.values():
            value_fvs.update(free_vars(v))
        if not any(b in value_fvs for b in binders):
            return list(binders), body_parts, live
        avoid = set(value_fvs) | set(live)
        for b in body_parts:
            avoid |= free_vars(b)
        avoid.update(binders)
        ren: dict[str, Expression] = {}
        new_binders = []
        for b in binders:
            if b in value_fvs:
                b2 = _fresh_variant(b, avoid)
                avoid.add(b2)
                ren[b] = Var(b2)
                new_binders.append(b2)
            else:
                new_binders.append(b)
        if ren:
            body_parts = [go(p, ren) for p in body_parts]
        return new_binders, body_parts, live

    def go(e: Expression, m: dict[str, Expression]) -> Expression:
        if not m:
            return e
        match e:
            case Var(name):
                return m.get(name, e)
            case IntLit() | Global():
                return e
            case App(f, a):
                return App(go(f, m), go(a, m))
            case CtorApp(k, args):
                return CtorApp(k, tuple(go(a, m) for a in args))
            case PrimOp(op, l, r):
                return PrimOp(op, go(l, m), go(r, m))
            case Lambda(p, b):
                (p2,), (b2,), m2 = adjust((p,), [b], m)
                return Lambda(p2, go(b2, m2))
            case Case(scrut, alts):
                new_alts = []
                for alt in alts:
                    binders = pattern_binders(alt.pattern)
                    bs, (body,), m2 = adjust(binders, [alt.body], m)
                    pat = _rebind_pattern(alt.pattern, bs) if binders else alt.pattern
                    new_alts.append(Alt(pat, go(body, m2)))
                return Case(go(scrut, m), tuple(new_alts))
            case Let(x, bound, body):
                (x2,), (body2,), m2 = adjust((x,), [body], m)
                return Let(x2, go(bound, m), go(body2, m2))
            case Letrec(g, rhs, body):
                return Letrec(g, go(rhs, m), go(body, m))
            case GenRequest(owner, t):
                return GenRequest(owner, go(t, m))
            case _:
                raise SyntaxError_(f"unknown expression {e!r}")

    return go(e, dict(mapping))


def _substitute_closed(m: dict[str, Expression], e: Expression) -> Expression:
    """Substitution of closed expressions: capture is impossible, only
    shadowing matters.
    """
    match e:
        case Var(name):
            return m.get(name, e)
        case IntLit() | Global():
            return e
        case App(f, a):
            return App(_substitute_closed(m, f), _substitute_closed(m, a))
        case CtorApp(k, args):
            return CtorApp(k, tuple(_substitute_closed(m, a) for a in args))
        case PrimOp(op, l, r):
            return PrimOp(op, _substitute_closed(m, l), _substitute_closed(m, r))
        case Lambda(p, b):
            m2 = {x: v for x, v in m.items() if x != p}
            return Lambda(p, _substitute_closed(m2, b)) if m2 else e
        case Case(scrut, alts):
            new_alts = []
            for alt in alts:
                binders = pattern_binders(alt.pattern)
                m2 = {x: v for x, v in m.items() if x not in binders}
                body = _substitute_closed(m2, alt.body) if m2 else alt.body
                new_alts.append(Alt(alt.pattern, body))
            return Case(_substitute_closed(m, scrut), tuple(new_alts))
        case Let(x, bound, body):
            m2 = {y: v for y, v in m.items() if y != x}
            return Let(
                x,
                _substitute_closed(m, bound),
                _substitute_closed(m2, body) if m2 else body,
            )
        case Letrec(g, rhs, body):
            return Letrec(g, _substitute_closed(m, rhs), _substitute_closed(m, body))
        case GenRequest(owner, t):
            return GenRequest(owner, _substitute_closed(m, t))
        case _:
            raise SyntaxError_(f"unknown expression {e!r}")


def _rebind_pattern(p: Pattern, binders: list[str]) -> Pattern:
    match p:
        case CtorPat(k, _):
            return CtorPat(k, tuple(binders))
        case DefaultPat(b):
            return DefaultPat(binders[0] if b is not None else None)
        case _:
            return p


# ---------------------------------------------------------------------------
# canonical key: alpha equivalence and the folding test


class Key(NamedTuple):
    shape: tuple  # preorder tokens; see `canonical`
    free: tuple[str, ...]  # free-variable occurrences, left to right
    globals: tuple[str, ...]  # free function-symbol occurrences, left to right


def canonical(e: Expression) -> Key:
    """The term modulo renaming of its binders.

    The shape is a preorder token sequence in which every tag fixes how many
    payload tokens and subterms follow it, so equal shapes mean equal trees.
    Each binder (lambda, let, pattern binder, default alternative, letrec
    symbol) takes the next de Bruijn level from a depth counter, and a bound
    occurrence becomes its binder's level.  Free variables and free function
    symbols become the markers "fv" and "fg" and are listed, in order, in
    `free` and `globals`.
    """
    shape: list = []
    free: list[str] = []
    globals_: list[str] = []

    def go(e: Expression, vs: dict, fs: dict, depth: int) -> None:
        match e:
            case Var(x) if x in vs:
                shape.extend(("v", vs[x]))
            case Var(x):
                shape.append("fv")
                free.append(x)
            case Global(g) if g in fs:
                shape.extend(("g", fs[g]))
            case Global(g):
                shape.append("fg")
                globals_.append(g)
            case IntLit(n):
                shape.extend(("i", n))
            case App(f, a):
                shape.append("@")
                go(f, vs, fs, depth)
                go(a, vs, fs, depth)
            case Lambda(p, b):
                shape.append("\\")
                go(b, {**vs, p: depth}, fs, depth + 1)
            case CtorApp(k, args):
                shape.extend(("K", k, len(args)))
                for a in args:
                    go(a, vs, fs, depth)
            case PrimOp(op, l, r):
                shape.extend(("p", op))
                go(l, vs, fs, depth)
                go(r, vs, fs, depth)
            case Case(scrut, alts):
                shape.extend(("case", len(alts)))
                go(scrut, vs, fs, depth)
                for alt in alts:
                    match alt.pattern:
                        case IntPat(n):
                            shape.extend(("ip", n))
                            binders: tuple = ()
                        case CtorPat(k, binders):
                            shape.extend(("cp", k, len(binders)))
                        case DefaultPat(b):
                            # one slot whether named or "_"
                            shape.append("dp")
                            binders = (b,)
                    vs2 = {**vs, **{b: depth + i for i, b in enumerate(binders)}}
                    go(alt.body, vs2, fs, depth + len(binders))
            case Let(x, bound, body):
                shape.append("let")
                go(bound, vs, fs, depth)
                go(body, {**vs, x: depth}, fs, depth + 1)
            case Letrec(g, rhs, body):
                shape.append("letrec")
                for c in (rhs, body):
                    go(c, vs, {**fs, g: depth}, depth + 1)
            case GenRequest(owner, t):
                shape.extend(("gen", owner))
                go(t, vs, fs, depth)
            case _:
                raise SyntaxError_(f"unknown expression {e!r}")

    go(e, {}, {}, 0)
    return Key(tuple(shape), tuple(free), tuple(globals_))


def alpha_eq(e1: Expression, e2: Expression) -> bool:
    """Equality up to consistent renaming of bound variables and of
    letrec-bound function symbols.  Free variables must match exactly.
    """
    return canonical(e1) == canonical(e2)


def match_keys(pattern: Key, subject: Key) -> Optional[dict[str, str]]:
    """`match_renaming` on precomputed keys."""
    if pattern.shape != subject.shape or pattern.globals != subject.globals:
        return None
    sigma: dict[str, str] = {}
    for x, y in zip(pattern.free, subject.free):
        if sigma.setdefault(x, y) != y:
            return None
    return sigma


def match_renaming(pattern_term: Expression, subject: Expression) -> Optional[dict[str, str]]:
    """A consistent (not necessarily injective) variable-to-variable map sigma
    on the free variables of pattern_term with sigma(pattern_term) equal to
    subject up to bound-variable renaming, or None.
    """
    return match_keys(canonical(pattern_term), canonical(subject))


# ---------------------------------------------------------------------------
# linearity


def _occurrences(e: Expression, x: str) -> int:
    """Occurrence count of x in e with the case rule: a case contributes its
    head count plus the maximum over its branches.  Capped at 2.
    """
    match e:
        case Var(name):
            return 1 if name == x else 0
        case IntLit() | Global():
            return 0
        case Lambda(p, b):
            return 0 if p == x else _occurrences(b, x)
        case Case(scrut, alts):
            n = _occurrences(scrut, x)
            branch = 0
            for alt in alts:
                if x in pattern_binders(alt.pattern):
                    continue
                branch = max(branch, _occurrences(alt.body, x))
            return min(2, n + branch)
        case Let(b, bound, body):
            n = _occurrences(bound, x)
            if b != x:
                n += _occurrences(body, x)
            return min(2, n)
        case _:
            n = 0
            for c in children(e):
                n += _occurrences(c, x)
                if n >= 2:
                    return 2
            return n


def is_linear(e: Expression, x: str) -> bool:
    """x occurs at most once in e, where a variable may occur once in each of
    several case branches but never in both the scrutinee and a branch.
    """
    return _occurrences(e, x) <= 1


# ---------------------------------------------------------------------------
# letrec encoding


def fix_definition() -> Expression:
    """fix = \\f. f (\\n. fix f n)"""
    return Lambda(
        "f",
        App(
            Var("f"),
            Lambda("n", App(App(Global(FIX_NAME), Var("f")), Var("n"))),
        ),
    )


def desugar_letrec(fun: str, rhs: Expression, body: Expression) -> Expression:
    """(\\h.body) (\\y. fix (\\h.rhs) y); rhs must be a lambda closed except
    for recursive references to fun.
    """
    if not isinstance(rhs, Lambda):
        raise SyntaxError_(f"letrec {fun}: right-hand side must be a lambda")
    extra = free_vars(rhs)
    if extra:
        raise SyntaxError_(
            f"letrec {fun}: right-hand side has free variables {sorted(extra)}"
        )
    recursive = Lambda(
        "y",
        App(
            App(Global(FIX_NAME), Lambda("_h", replace_global(rhs, fun, Var("_h")))),
            Var("y"),
        ),
    )
    return App(Lambda("_h", replace_global(body, fun, Var("_h"))), recursive)


# ---------------------------------------------------------------------------
# weight (termination measure)


def weight(e: Expression, initial_vars: set[str] | frozenset[str]) -> int:
    """Variables from the initial program, integer literals and function
    symbols weigh 2; variables minted during driving weigh 1; any composite
    weighs one plus the sum of its parts.
    """
    match e:
        case Var(name):
            return 2 if name in initial_vars else 1
        case IntLit() | Global():
            return 2
        case CtorApp(_, args) if not args:
            return 2
        case _:
            kids = children(e)
            return 1 + sum(weight(c, initial_vars) for c in kids)


def all_identifiers(e: Expression) -> set[str]:
    """Every variable name (free or bound) and function symbol occurring in e."""
    out: set[str] = set()

    def go(e: Expression) -> None:
        match e:
            case Var(name) | Global(name) | Lambda(name) | Let(name) | Letrec(name):
                out.add(name)
            case Case(_, alts):
                for alt in alts:
                    out.update(pattern_binders(alt.pattern))
        for c in children(e):
            go(c)

    go(e)
    return out


# ---------------------------------------------------------------------------
# programs


def program_externals(program: Program) -> set[str]:
    """Free variables of definition bodies: unknown external functions."""
    out: set[str] = set()
    for body in program.defs.values():
        out |= free_vars(body)
    return out


def validate_program(program: Program) -> None:
    if FIX_NAME in program.defs:
        raise SyntaxError_(f"'{FIX_NAME}' is a reserved function name")
    for name, body in program.defs.items():
        unknown = fun_names(body) - set(program.defs) - {FIX_NAME}
        if unknown:
            raise SyntaxError_(f"{name}: undefined functions {sorted(unknown)}")
        _validate_expr(body, name)


def _validate_expr(e: Expression, where: str) -> None:
    for t in subterms(e):
        match t:
            case Case(_, alts):
                heads: set = set()
                for i, alt in enumerate(alts):
                    match alt.pattern:
                        case IntPat(n):
                            key = ("int", n)
                        case CtorPat(k, binders):
                            key = ("ctor", k)
                            if len(set(binders)) != len(binders):
                                raise SyntaxError_(
                                    f"{where}: repeated pattern variable in {k}"
                                )
                        case DefaultPat(_):
                            key = ("default",)
                            if i != len(alts) - 1:
                                raise SyntaxError_(
                                    f"{where}: default alternative must come last"
                                )
                    if key in heads:
                        raise SyntaxError_(f"{where}: duplicate case alternative")
                    heads.add(key)
            case Letrec(g, rhs, _):
                if not isinstance(rhs, Lambda):
                    raise SyntaxError_(f"{where}: letrec {g} must bind a lambda")
                extra = free_vars(rhs)
                if extra:
                    raise SyntaxError_(
                        f"{where}: letrec {g} captures variables {sorted(extra)}"
                    )
            case GenRequest(_, _):
                raise SyntaxError_(f"{where}: internal node in source program")
