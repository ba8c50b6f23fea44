import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deforest import (
    Alt,
    App,
    Case,
    CtorApp,
    CtorPat,
    DefaultPat,
    EvalOutcome,
    Global,
    IntLit,
    IntPat,
    Lambda,
    Let,
    PrimOp,
    Var,
    eval_program,
    parse_expression,
    parse_program,
    supercompile,
)
from deforest.semantics import StuckError, eval_expr
from deforest.syntax import Program, SyntaxError_, alpha_eq, free_vars, select_alt, substitute

from conftest import (
    entry_calls_for,
    expressions,
    fixture_manifest,
    fixture_program,
    generate_programs,
)
from small_step import decompose, eval_via_step, is_value, step


def ev(text, defs_text="", fuel=100_000):
    program = parse_program(defs_text or "id x = x;")
    call = parse_expression(text, frozenset(program.defs))
    return eval_program(program, call, fuel)


def test_decompose_beta_redex():
    e = App(Lambda("x", Var("x")), IntLit(1))
    frames, redex = decompose(e)
    assert frames == []
    assert redex == e


def test_decompose_case_scrutinee_position():
    e = parse_expression("case 1 + 2 of { 3 -> 0 }")
    frames, redex = decompose(e)
    assert len(frames) == 1 and frames[0][0] == "case"
    assert redex == PrimOp("+", IntLit(1), IntLit(2))


def test_decompose_value():
    assert decompose(IntLit(5)) is None
    assert decompose(parse_expression("[1, 2]")) is None


def test_step_global_unfold():
    p = parse_program("f x = x;")
    out = step(App(Global("f"), IntLit(1)), p.defs)
    assert out == App(Lambda("x", Var("x")), IntLit(1))


def test_step_known_constructor_case():
    e = parse_expression("case (1 : []) of { [] -> 0; (x:xs) -> x }")
    assert step(e, {}) == IntLit(1)


def test_step_arith():
    e = parse_expression("case 2 + 3 of { 5 -> 9 }")
    assert step(e, {}) == parse_expression("case 5 of { 5 -> 9 }")
    assert step(parse_expression("2 + 3"), {}) == IntLit(5)


def test_step_none_for_values():
    assert step(IntLit(1), {}) is None
    assert step(parse_expression("\\x -> loop x"), {}) is None


def test_eval_factorial_fixture():
    program = fixture_program("factorial")
    call = parse_expression("main", frozenset(program.defs))
    out = eval_program(program, call)
    assert out.kind == "value"
    assert out.value == IntLit(6)
    # hand count: main unfold, fac 3/2/1/0 unfolds and betas, identity for
    # the external -> 10 calls; plus 4 case steps, 3 decrements, 3 products
    assert out.calls == 10
    assert out.steps == 20


def test_eval_append_allocations():
    program = parse_program(
        "append xs ys = case xs of { [] -> ys; (x:xs') -> x : append xs' ys };"
    )
    call = parse_expression("append [1,2] [3]", frozenset(program.defs))
    out = eval_program(program, call)
    assert out.kind == "value"
    assert alpha_eq(out.value, parse_expression("[1,2,3]"))
    assert out.allocs == 2  # one cons per element of the first list


def test_eval_out_of_fuel():
    out = ev("loop 1", "loop n = loop n;", fuel=1000)
    assert out.kind == "out_of_fuel"


def test_eval_stuck_reports_reason():
    out = eval_expr(PrimOp("+", IntLit(1), Lambda("x", Var("x"))), {}, 100)
    assert out.kind == "stuck"
    assert "integer" in out.reason


def test_eval_free_variable_is_stuck():
    out = eval_expr(App(Var("mystery"), IntLit(1)), {}, 100)
    assert out.kind == "stuck"


def test_values_are_normal_forms():
    for text in ["5", "[]", "[1, 2]", "\\x -> x + y", "Leaf 3"]:
        e = parse_expression(text)
        assert is_value(e)
        assert step(e, {}) is None


def test_fuel_monotonicity():
    program = fixture_program("double_append")
    call = parse_expression("main [1,2] [3] [4]", frozenset(program.defs))
    base = eval_program(program, call, 10_000)
    assert base.kind == "value"
    for extra in (1, 17, 1000):
        again = eval_program(program, call, base.steps + extra)
        assert again.kind == "value"
        assert again.value == base.value
        assert (again.calls, again.allocs, again.steps) == (
            base.calls,
            base.allocs,
            base.steps,
        )


# Fuel sweeps: the machine takes several reductions in one turn of its loop
# when their operands are atoms, so each fuel limit must still stop it at the
# reduction, with the counters, where literal step iteration stops.
SWEEP_CAP = 100  # the largest fuel swept for a call that runs out

HANDWRITTEN = """
shadow = \\x -> \\x -> x + 1;
mk n = \\y -> n * y;
mkl n = let k = \\y -> n * y in k;
pick b = case b of { 0 -> \\y -> y; _ -> \\y -> y + 1 };
add a b = a + b;
apply f x = f x;
twice f x = f (f x);
map f xs = case xs of { [] -> []; (x:xs') -> f x : map f xs' };
cons x xs = x : xs;
bad x = x + Nil;
plus x y = x + y;
second = case Cons 1 (Cons (\\x -> x + 1) Nil) of {
  (h:t) -> case t of { (f:r) -> f h; [] -> 0 }; [] -> 0 };
nest x = Cons x (Cons (\\y -> y) (Cons (id x) [\\y -> y]));
id z = z;
"""

HANDWRITTEN_CALLS = [
    "shadow 1 2",
    "mk 3 4",
    "mkl 3 4",
    "pick 0 5",
    "pick 1 5",
    "map (add 1) [1, 2]",
    "apply (mk 2) 5",
    "twice (add 3) 1",
    "map (\\x -> x * x) [3, 4]",
    "(\\x -> x + 1) 2",
    "let z = 3 in z * z",
    "cons 1 [2]",
    "Just (add 1)",
    "add 1",
    "bad 1",
    "plus 1 Nil",
    "plus Nil 1",
    "plus (add 1) 1",
    "case mk 3 of { _ -> 0 }",
    "pick 2",
    "apply 1 2",
    "second",
    "nest 1",
]

# open terms whose free y evaluation never reaches: it is under a lambda, or
# in a branch not taken
OPEN_VALUES = ["[\\x -> y]", "Just (case [] of { (h:t) -> y; _ -> 0 })"]

# open terms: eval_program refuses each, wherever y stands; eval_expr is
# stuck at it unless the term is one of OPEN_VALUES
OPEN_CALLS = [
    "y",
    "case y of { _ -> 1 }",
    "add y 1",
    "add 1 y",
    "y + 1",
    "1 + y",
    "(\\x -> x) y",
    "let z = y in z",
    "cons y []",
    "Just y",
    "y : []",
    "shadow y 2",
    "mk 3 y",
    "apply y 1",
    "[1, 2, y]",
    *OPEN_VALUES,
]


def _fuel_sweep(outcome, call, defs) -> int:
    """Compare the whole machine outcome(fuel) of call with literal step
    iteration at every fuel from 0 to one past the steps the call takes (at
    most SWEEP_CAP); returns the number of fuels compared.
    """
    steps = outcome(SWEEP_CAP).steps
    for fuel in range(steps + 2):
        assert outcome(fuel) == eval_via_step(call, defs, fuel), (call, fuel)
    return steps + 2


def test_eval_agrees_with_step_iteration():
    rng = random.Random(11)
    swept = 0
    for program in generate_programs(30, seed=5):
        for call in entry_calls_for(program, rng):
            outcome = partial(eval_expr, call, program.defs)
            assert outcome(4000) == eval_via_step(call, program.defs, 4000)
            swept += _fuel_sweep(outcome, call, program.defs)
    assert swept > 300


def _externals_as_identity(program):
    """The definitions with every free variable (an external function)
    substituted by the identity, as the step oracle needs them.
    """
    identity = Lambda("z", Var("z"))
    return {
        name: substitute({x: identity for x in free_vars(body)}, body)
        for name, body in program.defs.items()
    }


# Source-letrec forms of fixtures: each top-level function the entry uses is
# bound by a letrec inside it instead.  The loop form diverges.
LETREC_FORMS = {
    "append_self": (
        "main xs = letrec append = \\xs ys -> case xs of"
        " { [] -> ys; (x:xs') -> x : append xs' ys } in append xs xs;"
    ),
    "rev_accum": (
        "main xs = letrec rev = \\xs acc -> case xs of"
        " { [] -> acc; (x:xs') -> rev xs' (x : acc) } in rev xs [];"
    ),
    "double_append": (
        "main xs ys zs = letrec append = \\xs ys -> case xs of"
        " { [] -> ys; (x:xs') -> x : append xs' ys } in append (append xs ys) zs;"
    ),
    "vecdot": (
        "main xs ys = letrec mul = \\a b -> a * b in"
        " letrec zipWith = \\f xs ys -> case xs of { (x:xs') -> case ys of"
        " { (y:ys') -> f x y : zipWith f xs' ys'; _ -> [] }; _ -> [] } in"
        " letrec sum = \\xs -> case xs of { [] -> 0; (x:xs') -> x + sum xs' } in"
        " sum (zipWith mul xs ys);"
    ),
    "loop": "main = (\\x -> 42) (letrec d = \\u -> d u in d 0);",
}


def test_eval_agrees_with_step_iteration_on_fixtures(fixture_name):
    # letrec (a fixture's source-letrec form), higher-order functions and,
    # from each definition on its own, lambda results; externals are bound
    # lazily by eval_program and substituted up front for the oracle
    original = fixture_program(fixture_name)
    manifest = fixture_manifest(fixture_name)
    fuel = manifest["fuel"] or 100_000
    programs = [original, supercompile(original)]
    if fixture_name in LETREC_FORMS:
        programs.append(parse_program(LETREC_FORMS[fixture_name]))
    for program in programs:
        defs = _externals_as_identity(program)
        calls = [parse_expression(e, frozenset(program.defs)) for e in manifest["entries"]]
        for call in calls + [Global(name) for name in program.defs]:
            outcome = partial(eval_program, program, call)
            assert outcome(fuel) == eval_via_step(call, defs, fuel)
            _fuel_sweep(outcome, call, defs)


def test_fuel_sweep_on_atom_corner_cases():
    # shadowed curried parameters, a global given more arguments than it has
    # lambdas, partial application, functions as arguments, non-integers in
    # arithmetic, a lambda inside a nested constructor literal, constructor
    # frames that complete with and without a step, and an undefined global
    program = parse_program(HANDWRITTEN)
    calls = [parse_expression(e, frozenset(program.defs)) for e in HANDWRITTEN_CALLS]
    calls += [Global("nope"), App(Global("nope"), IntLit(1))]
    outcomes = [eval_program(program, c, 1000) for c in calls]
    assert [o.value for o in outcomes[:3]] == [IntLit(3), IntLit(12), IntLit(12)]
    # nest: the three frames around `id x` allocate, `[\\y -> y]` is a value
    assert outcomes[HANDWRITTEN_CALLS.index("nest 1")].allocs == 3
    assert {o.kind for o in outcomes} == {"value", "stuck"}
    defs = _externals_as_identity(program)
    swept = sum(_fuel_sweep(partial(eval_program, program, c), c, defs) for c in calls)
    assert swept > 100
    for text in OPEN_CALLS:
        call = parse_expression(text, frozenset(program.defs))
        out = eval_expr(call, program.defs, 1000)
        if text in OPEN_VALUES:
            assert out.kind == "value"
        else:
            assert out.reason == "free variable y"
        with pytest.raises(StuckError, match=r"entry call has free variables \['y'\]"):
            eval_program(program, call, 1000)
        _fuel_sweep(partial(eval_expr, call, program.defs), call, program.defs)
    # the closed literal that binds the y it holds
    closed = parse_expression("[\\y -> y]", frozenset(program.defs))
    assert eval_program(program, closed, 1000).value == closed


def test_unknown_operator_is_stuck_as_in_the_oracle():
    # the parser makes no such operator, but a hand-built term can hold one;
    # the machine gets stuck where step iteration does, at every fuel, and
    # validation refuses the program before driving
    div = PrimOp("/", IntLit(1), IntLit(2))
    f = Lambda("x", PrimOp("%", PrimOp("*", Var("x"), IntLit(3)), IntLit(2)))
    defs = {"f": f}
    calls = [div, PrimOp("+", IntLit(1), div), App(Global("f"), PrimOp("-", IntLit(4), IntLit(1)))]
    for call in calls:
        assert eval_expr(call, defs, 100).reason in ("unknown operator '/'", "unknown operator '%'")
        _fuel_sweep(partial(eval_expr, call, defs), call, defs)
    for main in (div, App(f, IntLit(1))):
        with pytest.raises(SyntaxError_, match="main: unknown operator"):
            supercompile(Program({"main": main}, "main"))


# Case selection: the machine looks a value up in a table built per alts
# tuple; it must pick select_alt's alternative and bind what it binds.  The
# alternatives below are terms, not source: validate_program would refuse the
# repeated and non-final ones, but the machine takes any alts tuple.

PATTERN_SPECS = st.one_of(
    st.tuples(st.just("ctor"), st.sampled_from("AB"), st.integers(0, 2)),
    st.tuples(st.just("int"), st.integers(0, 2)),
    st.tuples(st.just("default"), st.booleans()),  # named or wildcard
)

SCRUTINEE_VALUES = st.one_of(
    st.integers(0, 2).map(IntLit),
    st.tuples(st.sampled_from("AB"), st.lists(st.integers(0, 9), max_size=2)).map(
        lambda t: CtorApp(t[0], tuple(map(IntLit, t[1])))
    ),
    st.just(Lambda("z", Var("z"))),
)


def _alts(specs) -> tuple:
    """Alternative i returns R i and the values its pattern binds."""
    alts = []
    for i, spec in enumerate(specs):
        if spec[0] == "ctor":
            binders = tuple(f"x{i}_{j}" for j in range(spec[2]))
            pattern = CtorPat(spec[1], binders)
        elif spec[0] == "int":
            binders, pattern = (), IntPat(spec[1])
        else:
            binders = (f"d{i}",) if spec[1] else ()
            pattern = DefaultPat(binders[0] if binders else None)
        alts.append(Alt(pattern, CtorApp("R", (IntLit(i), *map(Var, binders)))))
    return tuple(alts)


@given(SCRUTINEE_VALUES, st.lists(PATTERN_SPECS, min_size=1, max_size=5).map(_alts))
@settings(max_examples=300, deadline=None)
def test_case_selection_agrees_with_select_alt(v, alts):
    alt = select_alt(v, alts)
    if alt is None:
        expected = None
    else:
        p = alt.pattern
        bound = v.args if type(p) is CtorPat else (v,) if type(p) is DefaultPat and p.binder else ()
        expected = CtorApp("R", (IntLit(alts.index(alt)), *bound))
    # a case on an atom, and a case whose scrutinee needs a frame
    for term in (Let("s", v, Case(Var("s"), alts)), Case(Let("s", v, Var("s")), alts)):
        out = eval_expr(term, {}, 100)
        if expected is None:
            assert out.kind == "stuck"
            if type(v) is Lambda:  # a default matches no closure
                assert out.reason == "case scrutinee is not a data value"
        else:
            assert out.kind == "value" and out.value == expected
        _fuel_sweep(partial(eval_expr, term, {}), term, {})


CASE_SHAPES = """
arity x = case x of { A -> 0; A a -> a; A a b -> a + b; _ -> 9 };
first x = case x of { B a -> a; B b -> b + 100; 1 -> 1; 1 -> 2; _ -> 3 };
named x = case x of { 0 -> 0; n -> n * 2 };
wild x = case x of { A -> 1; _ -> 2 };
none x = case x of { A -> 1; 2 -> 2 };
late x = case x of { y -> y; A -> 1 };
fun = \\y -> y;
"""

CASE_SHAPE_CALLS = [
    "arity A", "arity (A 1)", "arity (A 1 2)", "arity (A 1 2 3)", "arity 5",
    "arity fun", "first (B 1)", "first (B 1 2)", "first 1", "first 2",
    "named 0", "named 7", "named (A 1)", "named fun", "named (\\y -> y)",
    "wild fun", "wild (A 1)", "none (A 1)", "none 2", "none 3", "none B",
    "none fun", "late A", "late 4", "late fun", "case fun of { _ -> 0 }",
    "case wild (A 1) of { 2 -> arity (A (1 + 1) 3); _ -> 0 }",
]


def test_fuel_sweep_on_case_shapes():
    # constructors that share a name at several arities, repeated patterns,
    # integer patterns, named and wildcard defaults, a default before a
    # constructor pattern, and closures meeting every kind of case; the
    # program is parsed but not validated, since it repeats alternatives
    program = parse_program(CASE_SHAPES)
    calls = [parse_expression(e, frozenset(program.defs)) for e in CASE_SHAPE_CALLS]
    outcomes = {e: eval_program(program, c, 1000) for e, c in zip(CASE_SHAPE_CALLS, calls)}
    values = {e: o.value.value for e, o in outcomes.items() if o.kind == "value"}
    assert values == {
        "arity A": 0, "arity (A 1)": 1, "arity (A 1 2)": 3, "arity (A 1 2 3)": 9,
        "arity 5": 9, "first (B 1)": 1, "first (B 1 2)": 3, "first 1": 1,
        "first 2": 3, "named 0": 0, "named 7": 14, "wild (A 1)": 2,
        "none 2": 2, "late A": 1, "late 4": 4, "case wild (A 1) of { 2 -> arity (A (1 + 1) 3); _ -> 0 }": 5,
    }
    reasons = {e: o.reason for e, o in outcomes.items() if o.kind == "stuck"}
    assert reasons == {
        "arity fun": "case scrutinee is not a data value",
        "named (A 1)": "arithmetic on a non-integer",
        "named fun": "case scrutinee is not a data value",
        "named (\\y -> y)": "case scrutinee is not a data value",
        "wild fun": "case scrutinee is not a data value",
        "none (A 1)": "no alternative matches constructor A",
        "none 3": "no alternative matches 3",
        "none B": "no alternative matches constructor B",
        "none fun": "case scrutinee is not a data value",
        "late fun": "case scrutinee is not a data value",
        "case fun of { _ -> 0 }": "case scrutinee is not a data value",
    }
    for call in calls:
        _fuel_sweep(partial(eval_program, program, call), call, program.defs)


def test_closure_free_result_is_the_machine_value():
    program = parse_program("main xs = xs;")
    literal = parse_expression("[1, 2, 3]")
    out = eval_program(program, App(Global("main"), literal))
    assert out.value is literal


def test_shared_result_reads_back_once():
    # 2^200 paths through 201 distinct nodes: the read-back must not follow
    # the paths, and gives back the shared value as the machine built it
    program = parse_program(
        "dup n t = case n of { 0 -> t; _ -> dup (n - 1) (Branch t t) };"
        " main = dup 200 (Leaf 1);"
    )
    out = eval_program(program, Global("main"))
    assert out.kind == "value" and out.value.ctor == "Branch"
    assert out.value.args[0] is out.value.args[1]


def test_closure_inside_data_reads_back_as_the_oracle():
    # a closure under the list twice is read back once, so both elements are
    # one term; an external reads back through the same closure path
    for text, entry, value in [
        ("main n = [\\x -> x + n];", "main 5", "[\\x -> x + 5]"),
        ("main n = let f = \\x -> x + n in [f, f];", "main 5", "[\\x -> x + 5, \\x -> x + 5]"),
        ("main = [show, show];", "main", "[\\z -> z, \\z -> z]"),
    ]:
        program = parse_program(text)
        call = parse_expression(entry, frozenset(program.defs))
        out = eval_program(program, call)
        assert out.value == parse_expression(value)
        if len(out.value.args[1].args) == 2:
            assert out.value.args[0] is out.value.args[1].args[0]
        _fuel_sweep(partial(eval_program, program, call), call, _externals_as_identity(program))


def test_generated_programs_never_get_stuck():
    rng = random.Random(3)
    for program in generate_programs(40, seed=41):
        for call in entry_calls_for(program, rng):
            out = eval_expr(call, program.defs, 200_000)
            assert out.kind in ("value", "out_of_fuel"), out.reason


def test_letrec_costs_its_encoding():
    # a source letrec is a top-level definition, so a letrec form and its
    # fixture agree on every entry call, counters included
    for name, text in LETREC_FORMS.items():
        program, fixture = parse_program(text), fixture_program(name)
        manifest = fixture_manifest(name)
        fuel = manifest["fuel"] or 100_000
        for entry in manifest["entries"]:
            call = parse_expression(entry, frozenset(program.defs))
            assert eval_program(program, call, fuel) == eval_program(fixture, call, fuel)


def test_bind_externals_substitutes_identity():
    # an external (a variable no binder binds) is the identity \z -> z;
    # applying it costs the one beta its substitution would
    program = parse_program("main = show 42;")
    out = eval_program(program, Global("main"), 100)
    assert out == EvalOutcome("value", IntLit(42), None, 2, 0, 2, 1)
    # it reads back as that lambda inside data and under binders
    program = parse_program("main = Just show; f = \\x -> show x;")
    out = eval_program(program, Global("main"), 100)
    assert out.value == parse_expression("Just (\\z -> z)")
    out = eval_program(program, Global("f"), 100)
    assert out.value == parse_expression("\\x -> (\\z -> z) x")
    # outside a program a free variable is stuck, as before
    assert eval_expr(Global("main"), program.defs, 100).reason == "free variable show"


@given(expressions(10))
@settings(max_examples=120, deadline=None)
def test_step_agrees_with_value_predicate(e):
    try:
        out = step(e, {})
    except StuckError:
        assert not is_value(e)
        return
    assert (out is None) == is_value(e)


def test_stats_block_format():
    out = ev("1 + 2")
    assert out.stats_block() == "calls=0 allocs=0 steps=1 outcome=value"
