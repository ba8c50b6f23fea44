"""Core language AST and the syntactic operations everything else builds on.

Expressions are immutable; all functions here return fresh terms and never
mutate their arguments.  The nodes are those of the source language, which
residual programs share; the driver keeps its bookkeeping out of them (the
generalization holes are names that its session records).

Two traversal kernels carry the syntax: `children`/`rebuild` give a node's
immediate subterms and put new ones in their place, and `scopes` pairs each
subterm with the variables the node binds over it (`rebind` renames them).
Free variables, substitution, strictness and generalization are written once
over these kernels; the canonical key has its own walk, which also lists the
whistle's symbols in preorder and postorder (`canonical_symbols`).  No node binds a function name: a
source `letrec` is a top-level definition by the time the parser returns it.

"Modulo renaming" (`canonical`, and so `alpha_eq`, `match_keys` and the
golden comparison) allows a consistent renaming of bound variables and
pattern binders.  Every default alternative is one binder slot, so `x -> e`
with x unused equals `_ -> e`.

Every node is a frozen, slotted dataclass, so it keeps the generated
equality, hash, `fields` and `__match_args__`, and assignment raises
`FrozenInstanceError`.  Only `__init__` is replaced, by `_store_init`: the
generated one stores each field with `object.__setattr__` to get past the
frozen `__setattr__`, while the replacement stores it through the field's
slot descriptor, which is about a third cheaper per node.  The parameters are
the same, so positional and keyword construction are unchanged; every node
the parser, the driver and the interpreter build goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

class Expression:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class IntLit(Expression):
    value: int


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str


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


def _store_init(cls: type) -> None:
    """Give the node class cls an `__init__` with the generated one's
    parameters that stores each field through its slot descriptor.
    """
    names = [f.name for f in fields(cls)]
    scope = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    exec(
        f"def __init__(self, {', '.join(names)}):\n"
        + "".join(f"    _set_{n}(self, {n})\n" for n in names),
        scope,
    )
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init


for _cls in (IntLit, Var, Global, App, Lambda, CtorApp, PrimOp,
             IntPat, CtorPat, DefaultPat, Alt, Case, Let):
    _store_init(_cls)
del _cls


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
    if type(p) is CtorPat:
        return p.binders
    if type(p) is DefaultPat and p.binder is not None:
        return (p.binder,)
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


# The traversal kernels dispatch on type(e) through tables: a `match` on
# classes tries each case in turn.  The driver's hot walks branch on type(e)
# themselves and read a node's fields: `_substitute` on an application,
# operator or constructor (`_substitute_scopes` keeps `scopes` for binders),
# the key walk `_canonical_into` on every node and `_free_vars_into` on a
# constructor; `DriveSession.drive` picks its rule the same way.  The walks
# handle a variable, integer or global child inline instead of calling
# themselves on it; the key walk and `_free_vars_into` loop on a node's last
# child, so a long list literal costs them no stack.

_CHILDREN = {
    App: attrgetter("fun", "arg"),
    Lambda: lambda e: (e.body,),
    CtorApp: attrgetter("args"),
    PrimOp: attrgetter("lhs", "rhs"),
    Case: lambda e: (e.scrutinee, *[a.body for a in e.alts]),
    Let: attrgetter("bound", "body"),
}

_SCOPES = {
    App: lambda e: ((e.fun, ()), (e.arg, ())),
    Lambda: lambda e: ((e.body, (e.param,)),),
    CtorApp: lambda e: tuple([(a, ()) for a in e.args]),
    PrimOp: lambda e: ((e.lhs, ()), (e.rhs, ())),
    Case: lambda e: (
        (e.scrutinee, ()),
        *[(a.body, pattern_binders(a.pattern)) for a in e.alts],
    ),
    Let: lambda e: ((e.bound, ()), (e.body, (e.binder,))),
}


def _no_children(e: Expression) -> tuple:
    return ()


def children(e: Expression) -> tuple[Expression, ...]:
    """The immediate subterms of e, left to right."""
    return _CHILDREN.get(type(e), _no_children)(e)


def scopes(e: Expression) -> tuple[tuple[Expression, tuple[str, ...]], ...]:
    """`children(e)`, each paired with the variables e binds over it: a
    lambda its parameter over the body, a let its binder over the body only,
    a case alternative its pattern binders.
    """
    return _SCOPES.get(type(e), _no_children)(e)


_REBUILD = {
    App: lambda e, k: App(k[0], k[1]),
    Lambda: lambda e, k: Lambda(e.param, k[0]),
    CtorApp: lambda e, k: CtorApp(e.ctor, tuple(k)),
    PrimOp: lambda e, k: PrimOp(e.op, k[0], k[1]),
    Case: lambda e, k: Case(k[0], tuple([Alt(a.pattern, b) for a, b in zip(e.alts, k[1:])])),
    Let: lambda e, k: Let(e.binder, k[0], k[1]),
}


def rebuild(e: Expression, kids: Sequence[Expression]) -> Expression:
    """The inverse of `children`: e with its children replaced by kids."""
    return _REBUILD[type(e)](e, kids) if kids else e


def rebind(e: Expression, i: int, binders: Sequence[str]) -> Expression:
    """The inverse of `scopes` for binders: e with the variables bound over
    its i-th child renamed to binders, one for one.
    """
    match e:
        case Lambda(_, body):
            return Lambda(binders[0], body)
        case Let(_, bound, body):
            return Let(binders[0], bound, body)
        case Case(scrut, alts):
            p = alts[i - 1].pattern
            p = CtorPat(p.ctor, tuple(binders)) if type(p) is CtorPat else DefaultPat(binders[0])
            alt = Alt(p, alts[i - 1].body)
            return Case(scrut, alts[: i - 1] + (alt,) + alts[i:])


# ---------------------------------------------------------------------------
# fresh names


class FreshSupply:
    """Deterministic source of names that collide with nothing reserved and
    nothing issued before; one counter per base name.
    """

    def __init__(self, reserved: set[str]):
        self.reserved = set(reserved)
        self.counters: dict[str, int] = {}

    def var(self, base: str = "v") -> str:
        n = self.counters.get(base, 0)
        while True:
            n += 1
            name = f"{base}{n}"
            if name not in self.reserved:
                self.counters[base] = n
                self.reserved.add(name)
                return name

    def fun(self) -> str:
        return self.var("h")


# ---------------------------------------------------------------------------
# free variables / function names


def free_vars(e: Expression) -> set[str]:
    return set(free_vars_ordered(e))


def free_vars_ordered(e: Expression) -> list[str]:
    """Free variables in order of first occurrence (left to right)."""
    out: dict[str, None] = {}
    _free_vars_into(e, frozenset(), out)
    return list(out)


def _free_vars_into(e: Expression, bound: frozenset[str], out: dict[str, None]) -> None:
    # Loops on the last scope (a list's tail, a let body, an application's
    # argument) and recurses on the others, so a long list literal costs no
    # stack; the inline test for a variable child keeps it as fast as plain
    # recursion.  Module-level, not a recursive closure: a closure that calls
    # itself is a reference cycle, left for the cyclic collector on every call.
    # A constructor binds nothing, so its arguments are walked directly, with
    # no scope tuples and no call for an integer or global argument: the
    # closedness check of an entry call walks its list and tree literals.  The
    # first argument is tested inline; a loop would double a list cell's cost.
    while True:
        te = type(e)
        if te is Var:
            if e.name not in bound:
                out[e.name] = None
            return
        if te is CtorApp:
            args = e.args
            n = len(args)
            if not n:
                return
            if n > 1:
                a = args[0]
                ta = type(a)
                if ta is Var:
                    if a.name not in bound:
                        out[a.name] = None
                elif ta is not IntLit and ta is not Global:
                    _free_vars_into(a, bound, out)
                if n > 2:
                    for i in range(1, n - 1):
                        _free_vars_into(args[i], bound, out)
            e = args[-1]
            continue
        scopes_of = _SCOPES.get(te)
        if scopes_of is None:
            return
        sc = scopes_of(e)
        last = sc[-1]
        for pair in sc:
            if pair is last:  # every pair is a new tuple
                break
            c, bs = pair
            if type(c) is Var:
                if c.name not in bound and c.name not in bs:
                    out[c.name] = None
            else:
                _free_vars_into(c, bound.union(bs) if bs else bound, out)
        e, bs = last
        if bs:
            bound = bound.union(bs)


def fun_names(e: Expression) -> set[str]:
    out: set[str] = set()
    stack = [e]
    kids_of = _CHILDREN.get  # `children` without its call, on a hot walk
    while stack:
        t = stack.pop()
        kids = kids_of(type(t))
        if kids is not None:
            stack.extend(kids(t))
        elif type(t) is Global:
            out.add(t.name)
    return out


# ---------------------------------------------------------------------------
# substitution


def substitute(mapping: dict[str, Expression], e: Expression) -> Expression:
    """Simultaneous capture-avoiding substitution of expressions for free
    variables.  A binder is renamed (deterministically, with primes) only
    when it would capture a free variable of a value substituted below it.
    """
    if not mapping:
        return e
    return _substitute(e, mapping, None)


_CLOSED_LEAVES = (IntLit, Global)  # the leaves that no substitution changes


def _substitute(e: Expression, m: dict[str, Expression], vfv: Optional[set[str]]) -> Expression:
    """substitute(m, e), with vfv None or the free variables of the values of
    the mapping that m restricts.  A node none of whose children changes is
    returned as it is, so only the paths to the replaced variables are
    rebuilt.  A node that binds nothing is rebuilt from its fields, with a
    variable, integer or global child done inline.
    """
    t = type(e)
    if t is Var:
        return m.get(e.name, e)
    if t is App or t is PrimOp:
        a, b = (e.fun, e.arg) if t is App else (e.lhs, e.rhs)
        ta, tb = type(a), type(b)
        a2 = m.get(a.name, a) if ta is Var else a if ta in _CLOSED_LEAVES else _substitute(a, m, vfv)
        b2 = m.get(b.name, b) if tb is Var else b if tb in _CLOSED_LEAVES else _substitute(b, m, vfv)
        if a2 is a and b2 is b:
            return e
        return App(a2, b2) if t is App else PrimOp(e.op, a2, b2)
    if t is CtorApp:
        kids = []
        changed = False
        for c in e.args:
            tc = type(c)
            k = m.get(c.name, c) if tc is Var else c if tc in _CLOSED_LEAVES else _substitute(c, m, vfv)
            changed = changed or k is not c
            kids.append(k)
        return CtorApp(e.ctor, tuple(kids)) if changed else e
    if t is Lambda or t is Let or t is Case:
        return _substitute_scopes(e, m, vfv)
    return e


def _substitute_scopes(e: Expression, m: dict, vfv: Optional[set[str]]) -> Expression:
    """`_substitute` on a node that binds variables over some of its
    children, where vfv is computed if it is None.  Only a binder in vfv can
    capture, and only one that shadows a key of m copies m."""
    if vfv is None:
        vfv = set().union(*[{v.name} if type(v) is Var else free_vars(v) for v in m.values()])
    kids = []
    changed = False
    for i, (c, bs) in enumerate(scopes(e)):
        m2 = m
        if bs:
            if not m.keys().isdisjoint(bs):
                m2 = {x: v for x, v in m.items() if x not in bs}
            if m2 and not vfv.isdisjoint(bs):
                c, new, m2 = _avoid_capture(c, bs, m2)
                if new != bs:
                    e = rebind(e, i, new)
                    changed = True
        t = type(c)
        leaf = t is IntLit or t is Global or not m2
        k = m2.get(c.name, c) if t is Var else c if leaf else _substitute(c, m2, vfv)
        changed = changed or k is not c
        kids.append(k)
    return rebuild(e, kids) if changed else e


def _avoid_capture(c: Expression, bs: tuple[str, ...], m: dict) -> tuple:
    """(c', bs', m'): the entries of m free in c, with each binder in bs that
    would capture a free variable of their values renamed in c.
    """
    fc = free_vars(c)
    live = {x: v for x, v in m.items() if x in fc}
    value_fvs = set().union(*map(free_vars, live.values()))
    if not any(b in value_fvs for b in bs):
        return c, bs, live
    avoid = value_fvs | set(live) | fc | set(bs)
    ren: dict[str, Expression] = {}
    for b in bs:
        if b in value_fvs:
            b2, n = b + "'", 1
            while b2 in avoid:
                b2, n = f"{b}'{n}", n + 1
            avoid.add(b2)
            ren[b] = Var(b2)
    new = tuple(ren[b].name if b in ren else b for b in bs)
    return substitute(ren, c), new, live


# ---------------------------------------------------------------------------
# canonical key: alpha equivalence and the folding test


class Key(NamedTuple):
    shape: tuple  # preorder tokens; see `canonical`
    free: tuple[str, ...]  # free-variable occurrences, left to right
    globals: tuple[str, ...]  # function-symbol occurrences, left to right


def canonical(e: Expression) -> Key:
    """The term modulo renaming of its binders.

    The shape is a preorder token sequence in which every tag fixes how many
    payload tokens and subterms follow it, so equal shapes mean equal trees.
    Each binder (lambda, let, pattern binder, default alternative) takes the
    next de Bruijn level from a depth counter, and a bound occurrence becomes
    its binder's level.  Free variables and function symbols become the
    markers "fv" and "fg" and are listed, in order, in `free` and `globals`.
    """
    return canonical_symbols(e)[0]


def canonical_symbols(e: Expression) -> tuple[Key, list, list]:
    """`canonical(e)`, and from the same walk the whistle's symbols of the
    nodes of e (those of `generalize._symbol`) in preorder and in postorder."""
    out: tuple[list, list[str], list[str], list, list] = ([], [], [], [], [])
    _canonical_into(e, {}, 0, out)
    return Key(tuple(out[0]), tuple(out[1]), tuple(out[2])), out[3], out[4]


def _pattern_tokens(p: Pattern) -> tuple:
    if type(p) is IntPat:
        return ("ip", p.value)
    if type(p) is CtorPat:
        return ("cp", p.ctor, len(p.binders))
    return ("dp",)


def _canonical_into(e: Expression, vs: dict, depth: int, out: tuple) -> None:
    # Loops on the last child (an application's argument, a list's tail, a
    # body, the last alternative) and recurses on the others; the others of
    # an application, a constructor or an operator are written inline when
    # they are leaves.  `pre` gets each node's whistle symbol on entry;
    # `pending` holds those of the nodes whose last child is being walked,
    # which go to `post` when the loop ends, innermost first.
    shape, free, globals_, pre, post = out
    pending = []
    while e is not None:
        t = type(e)
        if t is App:
            shape.append("@")
            pre.append(App)
            pending.append(App)
            kids, e = (e.fun,), e.arg
        elif t is CtorApp:
            args = e.args
            n = len(args)
            shape += ("K", e.ctor, n)
            s = ("ctor", e.ctor, n)
            pre.append(s)
            pending.append(s)
            if not n:
                break
            kids, e = args[:-1], args[-1]
        elif t is PrimOp:
            shape += ("p", e.op)
            pre.append(PrimOp)
            pending.append(PrimOp)
            kids, e = (e.lhs,), e.rhs
        elif t is Lambda or t is Let:
            shape.append("\\" if t is Lambda else "let")
            pre.append(t)
            pending.append(t)
            if t is Let:
                _canonical_into(e.bound, vs, depth, out)
            x = e.param if t is Lambda else e.binder
            vs, depth, e = {**vs, x: depth}, depth + 1, e.body
            continue
        elif t is Case:
            alts = e.alts
            shape += ("case", len(alts))
            s = ("caseof", len(alts))
            pre.append(s)
            pending.append(s)
            _canonical_into(e.scrutinee, vs, depth, out)
            for i, alt in enumerate(alts):
                p = alt.pattern
                shape += _pattern_tokens(p)
                vs2, depth2 = dict(vs), depth
                # a default alternative is one slot, named or "_"
                for b in (p.binder,) if type(p) is DefaultPat else pattern_binders(p):
                    vs2[b] = depth2
                    depth2 += 1
                if i == len(alts) - 1:
                    vs, depth, e = vs2, depth2, alt.body
                else:
                    _canonical_into(alt.body, vs2, depth2, out)
            if not alts:
                break
            continue
        else:  # a leaf, at the root or last: written as a child
            kids, e = (e,), None
        for c in kids:
            tc = type(c)
            if tc is Var:
                if c.name in vs:
                    shape += ("v", vs[c.name])
                else:
                    shape.append("fv")
                    free.append(c.name)
                s = Var
            elif tc is IntLit:
                shape += ("i", c.value)
                s = IntLit
            elif tc is Global:
                shape.append("fg")
                globals_.append(c.name)
                s = ("global", c.name)
            else:
                _canonical_into(c, vs, depth, out)
                continue
            pre.append(s)
            post.append(s)
    pending.reverse()
    post += pending


def alpha_eq(e1: Expression, e2: Expression) -> bool:
    """Equality up to consistent renaming of bound variables.  Free
    variables and function symbols must match exactly.
    """
    return canonical(e1) == canonical(e2)


def match_keys(pattern: Key, subject: Key) -> Optional[dict[str, str]]:
    """The folding test on the keys of two terms: a consistent (not
    necessarily injective) variable-to-variable map sigma on the free
    variables of the pattern's term with sigma(pattern term) equal to the
    subject up to bound-variable renaming, or None.
    """
    if pattern.shape != subject.shape or pattern.globals != subject.globals:
        return None
    sigma: dict[str, str] = {}
    for x, y in zip(pattern.free, subject.free):
        if sigma.setdefault(x, y) != y:
            return None
    return sigma


# ---------------------------------------------------------------------------
# weight (termination measure)


def weight(e: Expression, holes: set[str] | frozenset[str]) -> int:
    """A generalization hole (a variable named in holes) weighs 1; any other
    leaf (variable, integer literal, function symbol, nullary constructor)
    weighs 2; any other node weighs one plus the sum of its parts.
    """
    total = 0
    stack = [e]
    while stack:
        t = stack.pop()
        kids = children(t)
        if kids:
            total += 1
            stack.extend(kids)
        else:
            total += 1 if type(t) is Var and t.name in holes else 2
    return total


# ---------------------------------------------------------------------------
# programs


def validate_program(program: Program) -> tuple[set[str], set[str]]:
    """Check each definition in one walk: undefined functions first, then its
    first bad case or unknown operator in preorder.  Returns every identifier
    that occurs (variable, binder or function symbol) and the program's
    externals: the free variables of its definitions."""
    names: set[str] = set()
    externals: set[str] = set()
    for name, body in program.defs.items():
        calls: set[str] = set()
        bad = None
        stack = [(body, frozenset())]
        while stack:
            t, bound = stack.pop()
            tt = type(t)
            if tt is Var:
                names.add(t.name)
                if t.name not in bound:
                    externals.add(t.name)
            elif tt is Global:
                calls.add(t.name)
            elif tt in _SCOPES:
                if bad is None:
                    if tt is Case:
                        bad = _case_error(t)
                    elif tt is PrimOp and t.op not in ARITH_OPS:
                        bad = f"unknown operator {t.op!r}"
                for c, bs in reversed(_SCOPES[tt](t)):
                    if bs:
                        names.update(bs)
                        stack.append((c, bound.union(bs)))
                    else:
                        stack.append((c, bound))
        unknown = calls - program.defs.keys()
        if unknown:
            raise SyntaxError_(f"{name}: undefined functions {sorted(unknown)}")
        if bad is not None:
            raise SyntaxError_(f"{name}: {bad}")
        names |= calls
    return names, externals


def _case_error(t: Case) -> Optional[str]:
    heads: set = set()
    for i, alt in enumerate(t.alts):
        match alt.pattern:
            case IntPat(n):
                key = ("int", n)
            case CtorPat(k, binders):
                key = ("ctor", k)
                if len(set(binders)) != len(binders):
                    return f"repeated pattern variable in {k}"
            case DefaultPat(_):
                key = ("default",)
                if i != len(t.alts) - 1:
                    return "default alternative must come last"
        if key in heads:
            return "duplicate case alternative"
        heads.add(key)
    return None
