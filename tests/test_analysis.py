from hypothesis import given, settings

from deforest import App, Case, Global, Lambda, Var, parse_expression
from deforest.analysis import demand, is_annoying, strict_vars
from deforest.semantics import eval_expr
from deforest.syntax import (
    free_vars,
    scopes,
    substitute,
    unfold_lambdas,
)

from conftest import (
    FIXTURE_NAMES,
    VAR_NAMES,
    all_identifiers,
    expressions,
    fixture_program,
    scoped_expressions,
    subterms,
)
from small_step import _decompose_ex

# a closed term that runs forever
DIVERGE = parse_expression("(\\x -> x x) (\\x -> x x)")


def test_strict_lambda_is_empty():
    assert strict_vars(parse_expression("\\x -> y + x")) == set()


def test_strict_arith_is_union():
    assert strict_vars(parse_expression("x + y")) == {"x", "y"}


def test_strict_case_intersects_branches():
    e = parse_expression("case w of { A -> y; B -> z }")
    assert strict_vars(e) == {"w"}
    e2 = parse_expression("case w of { A -> y; B -> y + z }")
    assert strict_vars(e2) == {"w", "y"}


def test_strict_let_removes_binder():
    e = parse_expression("let x = y in x + z")
    assert strict_vars(e) == {"y", "z"}


# the reference analyses: strictness as a set built per node, and the
# occurrence count with the case rule, each in its own walk


def reference_strict_vars(e):
    t = type(e)
    if t is Var:
        return {e.name}
    if t is Lambda:
        return set()
    parts = [reference_strict_vars(c).difference(bs) for c, bs in scopes(e)]
    if t is Case:
        scrut, *branches = parts
        return scrut | (set.intersection(*branches) if branches else set())
    return set().union(*parts)


def reference_occurrences(e, x):
    t = type(e)
    if t is Var:
        return 1 if e.name == x else 0
    sc = scopes(e)
    if t is Case:
        branch = max((reference_occurrences(c, x) for c, bs in sc[1:] if x not in bs), default=0)
        return min(2, reference_occurrences(sc[0][0], x) + branch)
    n = 0
    for c, bs in sc:
        if x not in bs:
            n += reference_occurrences(c, x)
            if n >= 2:
                return 2
    return n


def assert_demand_agrees(e):
    names = all_identifiers(e) | set(VAR_NAMES) | {"p", "q"}
    for t in subterms(e):
        strict = reference_strict_vars(t)
        assert strict_vars(t) == strict
        for x in names:
            assert demand(t, x) == (x in strict, reference_occurrences(t, x)), (t, x)


def test_demand_agrees_with_the_reference_on_fixtures():
    for name in FIXTURE_NAMES:
        for body in fixture_program(name).defs.values():
            assert_demand_agrees(body)


@given(expressions() | scoped_expressions())
@settings(max_examples=300, deadline=None)
def test_demand_agrees_with_the_reference(e):
    assert_demand_agrees(e)


def test_annoying_variable():
    assert is_annoying(Var("x"))


def test_annoying_arith_combinations():
    assert is_annoying(parse_expression("(x + 1) + y"))
    assert is_annoying(parse_expression("1 + x"))
    assert not is_annoying(parse_expression("1 + 2"))
    assert not is_annoying(parse_expression("x + (1 + 2)"))


def test_annoying_application_head():
    assert is_annoying(parse_expression("x (1 + 2) z"))
    assert not is_annoying(parse_expression("(\\x -> x) 1"))
    assert not is_annoying(App(Global("f"), Var("x")))


@given(expressions())
@settings(max_examples=200, deadline=None)
def test_strict_subset_of_free(e):
    assert strict_vars(e) <= free_vars(e)


@given(expressions(10))
@settings(max_examples=150, deadline=None)
def test_annoying_blocked_on_a_free_variable(e):
    # an annoying expression is not a value and its next-reduction position
    # is a free variable
    if is_annoying(e):
        out = _decompose_ex(e)
        assert out[0] == "stuck"
        assert out[2].startswith("free variable")


def _fixture_expressions():
    for name in FIXTURE_NAMES:
        program = fixture_program(name)
        for body in program.defs.values():
            _, inner = unfold_lambdas(body)
            yield program, inner


def test_strictness_soundness_on_fixture_corpus():
    # a strict variable, replaced by a divergent closed term while every other
    # free variable stays free, never lets evaluation reach a value: it runs
    # out of fuel, or gets stuck on another free variable first
    checked = 0
    for program, e in _fixture_expressions():
        for x in strict_vars(e):
            filled = substitute({x: DIVERGE}, e)
            out = eval_expr(filled, program.defs, 30_000)
            assert out.kind in ("out_of_fuel", "stuck"), (x, out.kind, out.value)
            checked += 1
    assert checked > 0


def test_non_strict_variable_can_be_skipped():
    # sanity check of the test method: a non-strict position may terminate
    e = parse_expression("\\u -> x")
    filled = substitute({"x": DIVERGE}, e)
    out = eval_expr(filled, {}, 10_000)
    assert out.kind == "value"
