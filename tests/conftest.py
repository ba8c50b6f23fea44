import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from deforest import (
    Alt,
    App,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    Global,
    IntLit,
    Lambda,
    Let,
    PrimOp,
    Program,
    Var,
    parse_program,
)
from deforest.cli import _read_manifest
from deforest.syntax import children, scopes

def subterms(e):
    """All subterms of e, preorder, including e itself."""
    stack = [e]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(children(t)))


def all_identifiers(e) -> set[str]:
    """Every variable name (free or bound) and function symbol occurring in
    e: the reference for the identifiers `validate_program` returns.
    """
    out: set[str] = set()
    stack = [e]
    while stack:
        t = stack.pop()
        if type(t) is Var or type(t) is Global:
            out.add(t.name)
        for c, bs in scopes(t):
            out.update(bs)
            stack.append(c)
    return out


FIXTURES = Path(__file__).resolve().parent.parent / "src" / "deforest" / "fixtures"

FIXTURE_NAMES = [
    "append_self",
    "double_append",
    "factorial",
    "flip_tree",
    "loop",
    "mapsq_mapsq",
    "rev_accum",
    "sum_map_square",
    "sum_mutual",
    "sum_squares_tree",
    "vecdot",
]


def fixture_program(name: str) -> Program:
    return parse_program((FIXTURES / f"{name}.core").read_text())


def fixture_manifest(name: str) -> dict:
    """{"entries", "golden", "fuel"} of a fixture's manifest, read as `check` reads it."""
    return _read_manifest(FIXTURES / f"{name}.manifest")


def fixture_golden(name: str) -> Program:
    return parse_program((FIXTURES / "golden" / f"{name}.core").read_text())


@pytest.fixture(params=FIXTURE_NAMES)
def fixture_name(request):
    return request.param


# ---------------------------------------------------------------------------
# hypothesis strategies for raw terms (not necessarily typed)

VAR_NAMES = ["a", "b", "c", "x", "y"]
GLOBAL_NAMES = ["f", "g"]


def _case(pair):
    scrut, (b1, b2) = pair
    return Case(
        scrut,
        (
            Alt(CtorPat("Nil", ()), b1),
            Alt(CtorPat("Cons", ("p", "q")), b2),
        ),
    )


def _scoped_case(t):
    scrut, binders, b1, b2, default = t
    alts = [Alt(CtorPat("Nil", ()), b1), Alt(CtorPat("Cons", tuple(binders)), b2)]
    if default is not None:
        alts.append(Alt(DefaultPat(default[0]), default[1]))
    return Case(scrut, tuple(alts))


_LEAF = st.one_of(
    st.integers(0, 4).map(IntLit),
    st.sampled_from(VAR_NAMES).map(Var),
    st.sampled_from(GLOBAL_NAMES).map(Global),
    st.just(CtorApp("Nil", ())),
)


def _extend(child, case):
    return st.one_of(
        st.tuples(child, child).map(lambda t: App(t[0], t[1])),
        st.tuples(st.sampled_from(VAR_NAMES), child).map(
            lambda t: Lambda(t[0], t[1])
        ),
        st.tuples(st.sampled_from(["+", "-", "*"]), child, child).map(
            lambda t: PrimOp(t[0], t[1], t[2])
        ),
        st.tuples(child, child).map(lambda t: CtorApp("Cons", (t[0], t[1]))),
        st.tuples(child).map(lambda t: CtorApp("Leaf", (t[0],))),
        case,
        st.tuples(st.sampled_from(VAR_NAMES), child, child).map(
            lambda t: Let(t[0], t[1], t[2])
        ),
    )


def expressions(max_leaves=12):
    return st.recursive(
        _LEAF,
        lambda child: _extend(child, st.tuples(child, st.tuples(child, child)).map(_case)),
        max_leaves=max_leaves,
    )


def scoped_expressions(max_leaves=12):
    """Like `expressions`, but the Cons pattern binds names from VAR_NAMES,
    so a substituted value can be captured under a pattern, and a case may
    end in a named or wildcard default alternative.
    """
    binders = st.lists(st.sampled_from(VAR_NAMES), min_size=2, max_size=2, unique=True)

    def case(child):
        default = st.none() | st.tuples(st.sampled_from(VAR_NAMES + [None]), child)
        return st.tuples(child, binders, child, child, default).map(_scoped_case)

    return st.recursive(
        _LEAF, lambda child: _extend(child, case(child)), max_leaves=max_leaves
    )


# ---------------------------------------------------------------------------
# seeded generator of well-scoped, constructor-consistent, terminating
# programs over ints and int lists (for differential testing)

INT, LIST = "int", "list"


class ProgramGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def gen(self, n_defs=3):
        self.defs = {}
        self.sigs = {}
        for i in range(n_defs):
            name = f"f{i}"
            recursive = self.rng.random() < 0.8
            extra = [("n", INT)] if self.rng.random() < 0.5 else []
            ret = self.rng.choice([INT, LIST])
            self.sigs[name] = ([LIST] + [t for _, t in extra], ret)
            self.defs[name] = self._recursive_def(name, extra, ret, recursive)
        body, _ = self._program_entry()
        self.defs["main"] = body
        return Program(defs=dict(self.defs), entry="main")

    def _recursive_def(self, name, extra, ret, recursive):
        # f xs [n] = case xs of { [] -> base; (h:t) -> step }
        env = [("xs", LIST)] + extra
        base = self._expr(ret, [e for e in env if e[0] != "xs"], name, None, 0)
        step_env = [("h", INT), ("t", LIST)] + extra
        step = self._expr(ret, step_env, name, "t" if recursive else None, 0)
        body = Case(
            Var("xs"),
            (
                Alt(CtorPat("Nil", ()), base),
                Alt(CtorPat("Cons", ("h", "t")), step),
            ),
        )
        out = body
        for p, _ in reversed(extra):
            out = Lambda(p, out)
        return Lambda("xs", out)

    def _call(self, name, tail_var, env, depth):
        args_t, _ = self.sigs[name]
        call = Global(name)
        first = True
        for t in args_t:
            if first:
                arg = Var(tail_var) if tail_var else self._expr(LIST, env, None, None, depth + 1)
                first = False
            else:
                arg = self._expr(t, env, None, None, depth + 1)
            call = App(call, arg)
        return call

    def _expr(self, ty, env, self_name, tail_var, depth):
        rng = self.rng
        names = [v for v, t in env if t == ty]
        # recursive structural call on the tail only
        if tail_var and self_name and rng.random() < 0.6:
            _, ret = self.sigs[self_name]
            if ret == ty:
                return self._call(self_name, tail_var, env, depth)
        callees = [
            f for f, (ats, r) in self.sigs.items()
            if r == ty and f != self_name and f in self.defs
        ]
        choices = ["leaf"]
        if depth < 3:
            choices += ["op", "op"]
            if callees:
                choices += ["call"]
            if any(t == LIST for _, t in env):
                choices += ["case"]
        kind = rng.choice(choices)
        if kind == "call":
            return self._call(rng.choice(callees), None, env, depth)
        if kind == "case":
            lists = [v for v, t in env if t == LIST]
            scrut = rng.choice(lists)
            inner = [e for e in env if e[0] not in ("h2", "t2")]
            nil_b = self._expr(ty, inner, self_name, None, depth + 1)
            cons_env = [("h2", INT), ("t2", LIST)] + [
                e for e in env if e[0] not in ("h2", "t2")
            ]
            cons_b = self._expr(ty, cons_env, self_name, None, depth + 1)
            return Case(
                Var(scrut),
                (
                    Alt(CtorPat("Nil", ()), nil_b),
                    Alt(CtorPat("Cons", ("h2", "t2")), cons_b),
                ),
            )
        if ty == INT:
            if kind == "op":
                return PrimOp(
                    rng.choice(["+", "-", "*"]),
                    self._expr(INT, env, self_name, None, depth + 1),
                    self._expr(INT, env, self_name, None, depth + 1),
                )
            if names and rng.random() < 0.7:
                return Var(rng.choice(names))
            return IntLit(rng.randrange(0, 5))
        else:
            if kind == "op":
                return CtorApp(
                    "Cons",
                    (
                        self._expr(INT, env, self_name, None, depth + 1),
                        self._expr(LIST, env, self_name, None, depth + 1),
                    ),
                )
            if names and rng.random() < 0.6:
                return Var(rng.choice(names))
            return CtorApp("Nil", ())

    def _literal_list(self, n):
        out = CtorApp("Nil", ())
        for _ in range(n):
            out = CtorApp("Cons", (IntLit(self.rng.randrange(0, 4)), out))
        return out

    def _program_entry(self):
        # main = an int- or list-typed composition of the generated functions
        ty = self.rng.choice([INT, LIST])
        env = [("inp", LIST)]
        body = self._expr(ty, env, None, None, 0)
        return Lambda("inp", body), ty


def generate_programs(count: int, seed: int = 2024):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        gen = ProgramGen(rng)
        out.append(gen.gen(n_defs=rng.randrange(2, 5)))
    return out


def entry_calls_for(program: Program, rng: random.Random, n=2):
    gen = ProgramGen(rng)
    calls = []
    for _ in range(n):
        calls.append(App(Global("main"), gen._literal_list(rng.randrange(0, 5))))
    return calls
