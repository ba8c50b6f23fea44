from hypothesis import given, settings
from hypothesis import strategies as st

from deforest import (
    App,
    Alt,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    Expression,
    Global,
    IntLit,
    IntPat,
    Lambda,
    Let,
    Pattern,
    PrimOp,
    Var,
)
from deforest import syntax
from deforest.analysis import demand
from deforest.syntax import (
    alpha_eq,
    canonical,
    canonical_symbols,
    children,
    fold_lambdas,
    free_vars,
    free_vars_ordered,
    fun_names,
    match_keys,
    pattern_binders,
    rebind,
    rebuild,
    scopes,
    select_alt,
    substitute,
    weight,
)

from conftest import VAR_NAMES, expressions, scoped_expressions

import dataclasses
import inspect
import sys

import pytest


def V(x):
    return Var(x)


def test_free_vars_literal():
    assert free_vars(IntLit(3)) == set()


def test_free_vars_lambda():
    e = Lambda("x", App(V("x"), V("y")))
    assert free_vars(e) == {"y"}


def test_free_vars_case_binders():
    e = Case(
        V("w"),
        (
            Alt(CtorPat("K", ("x",)), V("x")),
            Alt(CtorPat("J", ("y",)), V("z")),
        ),
    )
    assert free_vars(e) == {"w", "z"}


def test_fun_names_variable():
    assert fun_names(V("x")) == set()


def test_fun_names_application():
    assert fun_names(App(Global("f"), Global("h"))) == {"f", "h"}


def test_substitute_capture_avoidance():
    e = Lambda("y", V("x"))
    out = substitute({"x": V("y")}, e)
    assert isinstance(out, Lambda)
    assert out.param != "y"
    assert out.body == V("y")
    assert alpha_eq(out, Lambda("q", V("y")))


# capture renames: y' first, then y'1, y'2, ... past every name in sight
@pytest.mark.parametrize(
    "mapping, term, expected",
    [
        ({"x": V("y")}, Lambda("y", App(V("x"), V("y"))), Lambda("y'", App(V("y"), V("y'")))),
        (
            {"x": V("y")},
            Lambda("y", App(V("x"), V("y'"))),
            Lambda("y'1", App(V("y"), V("y'"))),
        ),
        ({"x": App(V("y"), V("y'"))}, Lambda("y", V("x")), Lambda("y'1", App(V("y"), V("y'")))),
        (
            {"x": V("y")},
            Let("y", V("x"), App(V("x"), V("y"))),
            Let("y'", V("y"), App(V("y"), V("y'"))),
        ),
        (
            {"x": V("y")},
            Case(V("s"), (Alt(CtorPat("Cons", ("y", "t")), App(V("x"), V("y"))),)),
            Case(V("s"), (Alt(CtorPat("Cons", ("y'", "t")), App(V("y"), V("y'"))),)),
        ),
        (
            {"x": V("y")},
            Case(V("s"), (Alt(DefaultPat("y"), App(V("x"), V("y"))),)),
            Case(V("s"), (Alt(DefaultPat("y'"), App(V("y"), V("y'"))),)),
        ),
        # no capture: the binder shadows x, or x does not occur below it
        ({"x": V("y")}, Lambda("x", V("x")), Lambda("x", V("x"))),
        ({"x": V("y")}, Lambda("y", V("y")), Lambda("y", V("y"))),
    ],
    ids=[
        "lambda",
        "lambda-prime-taken-in-body",
        "lambda-prime-taken-in-value",
        "let",
        "constructor-pattern",
        "default-pattern",
        "shadowed",
        "not-live",
    ],
)
def test_substitute_capture_renames(mapping, term, expected):
    assert repr(substitute(mapping, term)) == repr(expected)


def test_substitute_literal():
    e = PrimOp("+", V("x"), V("x"))
    assert substitute({"x": IntLit(1)}, e) == PrimOp("+", IntLit(1), IntLit(1))


def test_substitute_identity_when_absent():
    e = Lambda("y", V("y"))
    assert substitute({"x": IntLit(1)}, e) == e


def test_substitute_shares_unchanged_subterms():
    kept = Lambda("y", PrimOp("+", V("y"), V("z")))
    e = App(kept, V("x"))
    out = substitute({"x": IntLit(1)}, e)
    assert out == App(kept, IntLit(1)) and out.fun is kept
    assert substitute({"x": IntLit(1)}, kept) is kept


def is_linear(e, x):
    """x occurs at most once in e, where a variable may occur once in each of
    several case branches but never in both the scrutinee and a branch.
    """
    return demand(e, x)[1] <= 1


def test_is_linear_append_second_parameter():
    # ys appears in both branches of append's case, which is still linear
    body = Case(
        V("xs"),
        (
            Alt(CtorPat("Nil", ()), V("ys")),
            Alt(
                CtorPat("Cons", ("x", "xs2")),
                CtorApp("Cons", (V("x"), App(App(Global("append"), V("xs2")), V("ys")))),
            ),
        ),
    )
    assert is_linear(body, "ys")


def test_is_linear_double_use():
    assert not is_linear(PrimOp("+", V("x"), V("x")), "x")


def test_is_linear_head_and_branch():
    e = Case(V("x"), (Alt(CtorPat("A", ()), V("x")),))
    assert not is_linear(e, "x")


def test_alpha_eq_basic():
    assert alpha_eq(Lambda("x", V("x")), Lambda("y", V("y")))
    assert not alpha_eq(
        Lambda("x", Lambda("y", V("x"))), Lambda("a", Lambda("b", V("b")))
    )


def test_alpha_eq_shadowing_binder_takes_a_new_level():
    # the second x shadows the first, so w is the fourth binder, not the third
    shadowed = fold_lambdas(["x", "y", "x", "w"], V("w"))
    assert not alpha_eq(shadowed, fold_lambdas(["a", "b", "c", "d"], V("c")))
    assert alpha_eq(shadowed, fold_lambdas(["a", "b", "c", "d"], V("d")))


def match_renaming(pattern_term, subject):
    """The driver's folding test on two terms rather than their keys."""
    return match_keys(canonical(pattern_term), canonical(subject))


def test_match_renaming_shadowing_binder_takes_a_new_level():
    shadowed = fold_lambdas(["x", "y", "x", "w"], V("w"))
    assert match_renaming(shadowed, fold_lambdas(["a", "b", "c", "d"], V("c"))) is None


def _append_app(a, b):
    return App(App(Global("append"), a), b)


def test_match_renaming_fold():
    sigma = match_renaming(_append_app(V("x"), V("y")), _append_app(V("xs2"), V("xs")))
    assert sigma == {"x": "xs2", "y": "xs"}


def test_match_renaming_non_injective():
    sigma = match_renaming(_append_app(V("x"), V("y")), _append_app(V("xs"), V("xs")))
    assert sigma == {"x": "xs", "y": "xs"}


def test_match_renaming_mismatch():
    sum_ = Global("sum")
    pat = App(sum_, App(App(Global("map"), Global("square")), V("ys")))
    assert match_renaming(pat, App(sum_, V("ys"))) is None


def test_match_renaming_inconsistent():
    assert match_renaming(_append_app(V("x"), V("x")), _append_app(V("a"), V("b"))) is None


def test_weight_initial_variable():
    assert weight(V("x"), {"z"}) == 2


def test_weight_fresh_variable():
    # a generalization hole
    assert weight(V("z"), {"z"}) == 1


def test_weight_application():
    assert weight(App(V("x"), V("y")), set()) == 5


def test_fun_names_and_weight_take_no_stack_per_level():
    # a list literal nested far past Python's default recursion limit
    e = CtorApp("Nil", ())
    for _ in range(100_000):
        e = CtorApp("Cons", (Global("f"), e))
    assert fun_names(e) == {"f"}
    assert weight(e, set()) == 3 * 100_000 + 2


# ---------------------------------------------------------------------------
# properties


@given(expressions(), st.sampled_from(["a", "b", "x"]), expressions(8))
@settings(max_examples=150, deadline=None)
def test_substitution_free_vars_bound(f, x, e):
    out = substitute({x: e}, f)
    assert free_vars(out) <= (free_vars(f) - {x}) | free_vars(e)


@given(expressions(), st.sampled_from(["a", "b", "x"]), expressions(8))
@settings(max_examples=150, deadline=None)
def test_substitution_only_adds_functions_of_substituted(f, x, e):
    out = substitute({x: e}, f)
    assert fun_names(out) <= fun_names(f) | fun_names(e)
    assert fun_names(f) <= fun_names(out) | fun_names(e)


@given(expressions())
@settings(max_examples=100, deadline=None)
def test_alpha_eq_reflexive(e):
    assert alpha_eq(e, e)


@given(expressions(), expressions())
@settings(max_examples=100, deadline=None)
def test_alpha_eq_symmetric(e1, e2):
    assert alpha_eq(e1, e2) == alpha_eq(e2, e1)


@given(expressions(8))
@settings(max_examples=100, deadline=None)
def test_alpha_eq_transitive_on_binder_renamings(e):
    lam1 = Lambda("q", e)
    lam2 = Lambda("r", substitute({"q": Var("r")}, e))
    lam3 = Lambda("s", substitute({"q": Var("s")}, e))
    assert alpha_eq(lam1, lam2) and alpha_eq(lam2, lam3)
    assert alpha_eq(lam1, lam3)


@given(
    expressions(10),
    st.lists(st.sampled_from(["p", "q", "r"]), min_size=5, max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_match_renaming_recovers_applied_renaming(t, targets):
    # the applied map may be non-injective; the match must still succeed
    names = ["a", "b", "c", "x", "y"]
    ren = dict(zip(names, targets))
    subject = substitute({k: Var(v) for k, v in ren.items()}, t)
    sigma = match_renaming(t, subject)
    assert sigma is not None
    for v in free_vars(t):
        assert sigma[v] == ren[v]


@given(expressions())
@settings(max_examples=150, deadline=None)
def test_weight_positive(e):
    assert weight(e, {"a", "b"}) >= 1


@given(expressions(8), expressions(8))
@settings(max_examples=100, deadline=None)
def test_weight_monotone_under_replacement(inner, heavier):
    holes = {"a", "b"}
    w1 = weight(App(Global("f"), inner), holes)
    w2 = weight(App(Global("f"), heavier), holes)
    if weight(heavier, holes) > weight(inner, holes):
        assert w2 > w1


@given(
    scoped_expressions(),
    st.dictionaries(st.sampled_from(VAR_NAMES), scoped_expressions(6), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_substitution_free_vars_law(e, m):
    # fv(e[m]) = (fv(e) - dom m) | U{fv(m x) | x in fv(e) & dom m}
    fv = free_vars(e)
    expected = fv - set(m)
    for x in fv & set(m):
        expected |= free_vars(m[x])
    assert free_vars(substitute(m, e)) == expected


def test_free_vars_ordered_first_occurrence():
    e = PrimOp("+", App(V("b"), V("a")), V("b"))
    assert free_vars_ordered(e) == ["b", "a"]


def _free_vars_reference(e, bound=frozenset()) -> list:
    """Free variables with repeats, left to right, by plain recursion."""
    t = type(e)
    if t is Var:
        return [] if e.name in bound else [e.name]
    if t is Lambda:
        return _free_vars_reference(e.body, bound | {e.param})
    if t is Let:
        return _free_vars_reference(e.bound, bound) + _free_vars_reference(
            e.body, bound | {e.binder}
        )
    if t is Case:
        out = _free_vars_reference(e.scrutinee, bound)
        for alt in e.alts:
            p = alt.pattern
            if type(p) is CtorPat:
                bs = set(p.binders)
            else:  # a wildcard's binder None names no variable
                bs = {p.binder} if type(p) is DefaultPat else set()
            out += _free_vars_reference(alt.body, bound | bs)
        return out
    if t is App:
        kids = (e.fun, e.arg)
    elif t is PrimOp:
        kids = (e.lhs, e.rhs)
    elif t is CtorApp:
        kids = e.args
    else:  # an integer or a global
        kids = ()
    return [x for c in kids for x in _free_vars_reference(c, bound)]


# constructors of every arity from 0 to 4, whose arguments hold lambdas,
# cases, lets, globals and further constructors, under lambdas that bind
# some of their variables
_wide_constructors = st.recursive(
    scoped_expressions(6),
    lambda child: st.one_of(
        st.tuples(st.sampled_from(["K", "Cons", "Leaf"]), st.lists(child, max_size=4)).map(
            lambda t: CtorApp(t[0], tuple(t[1]))
        ),
        st.tuples(st.sampled_from(VAR_NAMES), child).map(lambda t: Lambda(t[0], t[1])),
    ),
    max_leaves=16,
)


@given(st.one_of(scoped_expressions(), _wide_constructors))
@settings(max_examples=300, deadline=None)
def test_free_vars_ordered_agrees_with_the_reference(e):
    expected = list(dict.fromkeys(_free_vars_reference(e)))
    assert free_vars_ordered(e) == expected
    assert free_vars(e) == set(expected)


_ALTS = (
    Alt(CtorPat("K", ("a", "b")), V("a")),
    Alt(IntPat(3), IntLit(30)),
    Alt(DefaultPat("d"), V("d")),
)


@pytest.mark.parametrize(
    "value, alts, expected",
    [
        (CtorApp("K", (IntLit(1), IntLit(2))), _ALTS, 0),
        (CtorApp("K", (IntLit(1),)), _ALTS, 2),
        (IntLit(3), _ALTS, 1),
        (IntLit(4), _ALTS, 2),
        (IntLit(4), _ALTS[:2], None),
        (CtorApp("J", ()), _ALTS[:2], None),
        (Lambda("x", V("x")), _ALTS, None),
    ],
    ids=[
        "constructor",
        "wrong-arity-default",
        "integer",
        "named-default",
        "no-integer-match",
        "no-constructor-match",
        "not-data",
    ],
)
def test_select_alt(value, alts, expected):
    assert select_alt(value, alts) is (None if expected is None else alts[expected])


_K = CtorApp("K", ())


@pytest.mark.parametrize(
    "term, expected",
    [
        (IntLit(1), ()),
        (V("x"), ()),
        (Global("f"), ()),
        (App(V("f"), V("a")), ((V("f"), ()), (V("a"), ()))),
        (Lambda("x", V("b")), ((V("b"), ("x",)),)),
        (CtorApp("K", (V("a"), V("b"))), ((V("a"), ()), (V("b"), ()))),
        (PrimOp("+", V("l"), V("r")), ((V("l"), ()), (V("r"), ()))),
        (
            Case(
                V("s"),
                (
                    Alt(CtorPat("Cons", ("h", "t")), V("c")),
                    Alt(IntPat(3), V("i")),
                    Alt(DefaultPat("d"), V("n")),
                ),
            ),
            ((V("s"), ()), (V("c"), ("h", "t")), (V("i"), ()), (V("n"), ("d",))),
        ),
        (
            Case(V("s"), (Alt(CtorPat("Nil", ()), V("c")), Alt(DefaultPat(None), V("w")))),
            ((V("s"), ()), (V("c"), ()), (V("w"), ())),
        ),
        (Let("x", V("a"), V("b")), ((V("a"), ()), (V("b"), ("x",)))),
    ],
    ids=[
        "int",
        "var",
        "global",
        "app",
        "lambda",
        "ctor",
        "primop",
        "case-ctor-int-named-default",
        "case-wildcard",
        "let",
    ],
)
def test_scopes(term, expected):
    assert scopes(term) == expected
    assert tuple(c for c, _ in scopes(term)) == children(term)
    # rebuild puts new children in place and keeps each scope's binders
    assert rebuild(term, children(term)) == term
    kids = tuple(IntLit(10 + i) for i in range(len(expected)))
    assert scopes(rebuild(term, kids)) == tuple(zip(kids, (bs for _, bs in expected)))


# ---------------------------------------------------------------------------
# the kernels against plain reference versions


def _eager_substitute(m, e, fvs=None):
    """Capture-avoiding substitution as it was written before the free
    variables of the values were computed lazily: every value's, up front.
    The oracle for `substitute`.
    """
    if fvs is None:
        fvs = {x: free_vars(v) for x, v in m.items()}
    if type(e) is Var:
        return m.get(e.name, e)
    kids, changed = [], False
    for i, (c, bs) in enumerate(scopes(e)):
        m2 = m
        if bs:
            m2 = {x: v for x, v in m.items() if x not in bs}
            fc = free_vars(c)
            live = {x: v for x, v in m2.items() if x in fc}
            value_fvs = set().union(*[fvs[x] for x in live])
            if any(b in value_fvs for b in bs):
                avoid = value_fvs | set(live) | fc | set(bs)
                ren = {}
                for b in bs:
                    if b in value_fvs:
                        b2, n = b + "'", 1
                        while b2 in avoid:
                            b2, n = f"{b}'{n}", n + 1
                        avoid.add(b2)
                        ren[b] = Var(b2)
                new = tuple(ren[b].name if b in ren else b for b in bs)
                c, m2 = _eager_substitute(ren, c), live
                e, changed = rebind(e, i, new), True
        k = _eager_substitute(m2, c, fvs) if m2 else c
        changed = changed or k is not c
        kids.append(k)
    return rebuild(e, kids) if changed else e


@given(
    scoped_expressions(),
    st.dictionaries(
        st.sampled_from(VAR_NAMES),
        st.sampled_from(VAR_NAMES).map(Var) | scoped_expressions(6),
        max_size=3,
    ),
)
@settings(max_examples=300, deadline=None)
def test_substitute_agrees_with_the_eager_oracle(e, m):
    # the values are over VAR_NAMES, the names the lambda, let and pattern
    # binders of e use, so binders capture and are renamed
    out = substitute(m, e)
    assert alpha_eq(out, _eager_substitute(m, e))
    assert out == _eager_substitute(m, e)  # the same renamed binders, too


def test_substitute_renames_each_kind_of_capturing_binder():
    m = {"x": PrimOp("+", V("y"), V("z"))}
    for e in (
        Lambda("y", V("x")),
        Let("y", V("x"), App(V("x"), V("y"))),
        Case(V("w"), (Alt(CtorPat("Cons", ("y", "t")), V("x")), Alt(DefaultPat("z"), V("x")))),
    ):
        out = substitute(m, e)
        assert out == _eager_substitute(m, e) and free_vars(out) == free_vars(e) - {"x"} | {"y", "z"}


def _canonical_reference(e, vs=None, depth=0, out=None):
    """The key by plain recursion over `scopes`, one call per node."""
    if out is None:
        out = ([], [], [])
        _canonical_reference(e, {}, 0, out)
        return tuple(map(tuple, out))
    shape, free, globals_ = out
    t = type(e)
    if t is Var:
        shape.extend(("v", vs[e.name]) if e.name in vs else ("fv",))
        if e.name not in vs:
            free.append(e.name)
        return
    if t is Global or t is IntLit:
        shape.extend(("fg",) if t is Global else ("i", e.value))
        if t is Global:
            globals_.append(e.name)
        return
    shape.extend(
        {
            App: lambda: ("@",),
            Lambda: lambda: ("\\",),
            CtorApp: lambda: ("K", e.ctor, len(e.args)),
            PrimOp: lambda: ("p", e.op),
            Case: lambda: ("case", len(e.alts)),
            Let: lambda: ("let",),
        }[t]()
    )
    for i, (c, bs) in enumerate(scopes(e)):
        if t is Case and i:
            p = e.alts[i - 1].pattern
            shape.extend(
                ("ip", p.value) if type(p) is IntPat
                else ("cp", p.ctor, len(p.binders)) if type(p) is CtorPat
                else ("dp",)
            )
            if type(p) is DefaultPat:
                bs = (p.binder,)
        levels = {b: depth + j for j, b in enumerate(bs)}
        _canonical_reference(c, {**vs, **levels}, depth + len(bs), out)


@given(expressions() | scoped_expressions())
@settings(max_examples=300, deadline=None)
def test_canonical_agrees_with_the_reference(e):
    assert tuple(canonical(e)) == _canonical_reference(e)
    assert canonical_symbols(e)[0] == canonical(e)


def test_key_walk_of_a_long_list_fits_a_low_recursion_limit():
    lst = CtorApp("Nil", ())
    for i in range(5000):
        lst = CtorApp("Cons", (App(Global("f"), IntLit(i)), lst))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        key, order, post = canonical_symbols(lst)
    finally:
        sys.setrecursionlimit(limit)
    assert key.globals == ("f",) * 5000
    assert order[:4] == [("ctor", "Cons", 2), App, ("global", "f"), IntLit]
    assert len(order) == 4 * 5000 + 1
    # postorder: each cell's application first, the Nil, then the cells innermost first
    assert post[:3] == [("global", "f"), IntLit, App]
    last_cell = [("global", "f"), IntLit, App, ("ctor", "Nil", 0)]
    assert post[3 * 5000 - 3 :] == last_cell + [("ctor", "Cons", 2)] * 5000
    assert len(post) == 4 * 5000 + 1


# Node classes keep the generated dataclass behaviour but have their own
# __init__; compare each with a plain frozen slotted dataclass of its fields.
# (They are read from the module: `__subclasses__` would also list the
# classes that `dataclass(slots=True)` replaced.)
NODE_CLASSES = [
    c for c in vars(syntax).values()
    if isinstance(c, type) and issubclass(c, (Expression, Pattern, Alt)) and c not in (Expression, Pattern)
]


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_class_behaves_as_its_dataclass(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    plain = dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True, slots=True
    )
    assert [(f.name, f.type) for f in dataclasses.fields(plain)] == [
        (f.name, f.type) for f in dataclasses.fields(cls)
    ]
    assert inspect.signature(cls) == inspect.signature(plain)
    assert cls.__match_args__ == plain.__match_args__ == tuple(names)
    values = [f"a{i}" for i in range(len(names))]
    node = cls(*values)
    by_keyword = cls(**dict(zip(reversed(names), reversed(values))))
    assert [getattr(node, n) for n in names] == values
    assert node == by_keyword and hash(node) == hash(by_keyword)
    assert hash(node) == hash(plain(*values)) == hash(tuple(values))
    assert node != cls(*values[:-1], "other") and node != plain(*values)
    assert repr(node) == repr(plain(*values))
    assert not hasattr(node, "__dict__")
    for n in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, n, "b")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, n)
    with pytest.raises(TypeError):
        cls(*values, "extra")
    assert [getattr(node, n) for n in names] == values
