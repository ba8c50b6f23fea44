from hypothesis import given, settings
from hypothesis import strategies as st

from deforest import (
    App,
    Alt,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    Global,
    IntLit,
    IntPat,
    Lambda,
    Letrec,
    PrimOp,
    Var,
    alpha_eq,
    desugar_letrec,
    free_vars,
    fun_names,
    is_linear,
    match_renaming,
    substitute,
    weight,
)
from deforest.syntax import SyntaxError_, fold_lambdas, free_vars_ordered, select_alt

from conftest import expressions

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


def test_fun_names_letrec_hides_its_own_symbol():
    e = Letrec("g", Lambda("x", App(Global("g"), V("x"))), Global("g"))
    assert fun_names(e) == set()


def test_fun_names_application():
    assert fun_names(App(Global("f"), Global("h"))) == {"f", "h"}


def test_substitute_capture_avoidance():
    e = Lambda("y", V("x"))
    out = substitute({"x": V("y")}, e)
    assert isinstance(out, Lambda)
    assert out.param != "y"
    assert out.body == V("y")
    assert alpha_eq(out, Lambda("q", V("y")))


def test_substitute_literal():
    e = PrimOp("+", V("x"), V("x"))
    assert substitute({"x": IntLit(1)}, e) == PrimOp("+", IntLit(1), IntLit(1))


def test_substitute_identity_when_absent():
    e = Lambda("y", V("y"))
    assert substitute({"x": IntLit(1)}, e) == e


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


def test_desugar_letrec_shape():
    rhs = Lambda("x", App(Global("h"), V("x")))
    out = desugar_letrec("h", rhs, Global("h"))
    # (\h. h) (\y. fix (\h. \x. h x) y)
    assert isinstance(out, App)
    assert isinstance(out.fun, Lambda)
    assert out.fun.body == Var(out.fun.param)
    wrap = out.arg
    assert isinstance(wrap, Lambda)
    inner = wrap.body
    assert isinstance(inner, App)
    assert inner.arg == Var(wrap.param)
    assert inner.fun.fun == Global("fix")


def test_desugar_letrec_rejects_open_rhs():
    rhs = Lambda("x", V("free"))
    with pytest.raises(SyntaxError_):
        desugar_letrec("h", rhs, Global("h"))


def test_desugar_letrec_rejects_non_lambda():
    with pytest.raises(SyntaxError_):
        desugar_letrec("h", IntLit(4), Global("h"))


def test_alpha_eq_basic():
    assert alpha_eq(Lambda("x", V("x")), Lambda("y", V("y")))
    assert not alpha_eq(
        Lambda("x", Lambda("y", V("x"))), Lambda("a", Lambda("b", V("b")))
    )


def test_alpha_eq_letrec_symbols_are_binders():
    e1 = Letrec("h1", Lambda("x", App(Global("h1"), V("x"))), Global("h1"))
    e2 = Letrec("h2", Lambda("x", App(Global("h2"), V("x"))), Global("h2"))
    assert alpha_eq(e1, e2)


def test_alpha_eq_shadowing_binder_takes_a_new_level():
    # the second x shadows the first, so w is the fourth binder, not the third
    shadowed = fold_lambdas(["x", "y", "x", "w"], V("w"))
    assert not alpha_eq(shadowed, fold_lambdas(["a", "b", "c", "d"], V("c")))
    assert alpha_eq(shadowed, fold_lambdas(["a", "b", "c", "d"], V("d")))


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
    assert weight(V("x"), {"x"}) == 2


def test_weight_fresh_variable():
    assert weight(V("z"), {"x"}) == 1


def test_weight_application():
    assert weight(App(V("x"), V("y")), {"x", "y"}) == 5


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
    assert weight(e, {"a", "b", "c", "x", "y"}) >= 1


@given(expressions(8), expressions(8))
@settings(max_examples=100, deadline=None)
def test_weight_monotone_under_replacement(inner, heavier):
    initial = {"a", "b", "c", "x", "y"}
    w1 = weight(App(Global("f"), inner), initial)
    w2 = weight(App(Global("f"), heavier), initial)
    if weight(heavier, initial) > weight(inner, initial):
        assert w2 > w1


def test_free_vars_ordered_first_occurrence():
    e = PrimOp("+", App(V("b"), V("a")), V("b"))
    assert free_vars_ordered(e) == ["b", "a"]


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
