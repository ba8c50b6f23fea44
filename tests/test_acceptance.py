"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.
"""

import itertools
import random
import time

from deforest import (
    App,
    CtorApp,
    Global,
    IntLit,
    PrimOp,
    Var,
    alpha_eq,
    embeds,
    eval_expr,
    eval_program,
    free_vars,
    msg,
    parse_expression,
    split,
    strict_vars,
    substitute,
    supercompile,
)
from deforest.driver import program_alpha_eq
from deforest.syntax import children, unfold_lambdas

from conftest import (
    FIXTURE_NAMES,
    entry_calls_for,
    fixture_golden,
    fixture_manifest,
    fixture_program,
    generate_programs,
)

GOLDEN_FIXTURES = [n for n in FIXTURE_NAMES if n != "loop"]


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------


def test_criterion_1_golden_residuals():
    slowest = 0.0
    for name in GOLDEN_FIXTURES:
        program = fixture_program(name)
        t0 = time.perf_counter()
        residual = supercompile(program)
        took = time.perf_counter() - t0
        slowest = max(slowest, took)
        assert took < 1.0, f"{name} drove in {took:.2f}s"
        assert program_alpha_eq(residual, fixture_golden(name)), name
    report(
        1,
        True,
        f"{len(GOLDEN_FIXTURES)} golden residuals alpha-match, "
        f"slowest drive {slowest * 1000:.1f} ms",
    )


# ---------------------------------------------------------------------------


def _literal_list(values):
    out = CtorApp("Nil", ())
    for v in reversed(values):
        out = CtorApp("Cons", (IntLit(v), out))
    return out


def _full_tree(depth):
    if depth == 0:
        return CtorApp("Leaf", (IntLit(1),))
    sub = _full_tree(depth - 1)
    return CtorApp("Branch", (sub, sub))


def test_criterion_2_allocation_ratios():
    n = 1000
    program = fixture_program("double_append")
    residual = supercompile(program)
    lists = [_literal_list([1] * n) for _ in range(3)]
    call = App(App(App(Global("main"), lists[0]), lists[1]), lists[2])
    before = eval_program(program, call, 10_000_000)
    after = eval_program(residual, call, 10_000_000)
    assert before.kind == after.kind == "value"
    ratio = after.allocs / before.allocs
    assert abs(ratio - 2 / 3) <= 0.01 * (2 / 3), (before.allocs, after.allocs)

    depth = 8
    tree_program = fixture_program("flip_tree")
    tree_residual = supercompile(tree_program)
    tree_call = App(Global("main"), _full_tree(depth))
    t_before = eval_program(tree_program, tree_call, 10_000_000)
    t_after = eval_program(tree_residual, tree_call, 10_000_000)
    assert t_before.kind == t_after.kind == "value"
    assert alpha_eq(t_before.value, t_after.value)
    assert t_before.allocs >= 2 * (2**depth - 1), t_before.allocs
    assert t_after.allocs == 0, t_after.allocs
    report(
        2,
        True,
        f"double append {before.allocs}->{after.allocs} (ratio {ratio:.4f}), "
        f"flip-tree {t_before.allocs}->{t_after.allocs}",
    )


# ---------------------------------------------------------------------------

FUEL = 1_000_000


def _agree(program, residual, call, fuel=FUEL):
    before = eval_program(program, call, fuel)
    after = eval_program(residual, call, fuel)
    if before.kind == "value" and after.kind == "value":
        return alpha_eq(before.value, after.value), before, after
    return before.kind == after.kind == "out_of_fuel", before, after


def test_criterion_3_semantic_preservation():
    rng = random.Random(12345)
    programs = generate_programs(500, seed=20240809)
    checked = 0
    for program in programs:
        residual = supercompile(program)
        for call in entry_calls_for(program, rng):
            ok, before, after = _agree(program, residual, call)
            assert ok, (before.kind, after.kind)
            checked += 1
    for name in FIXTURE_NAMES:
        program = fixture_program(name)
        residual = supercompile(program)
        for entry in fixture_manifest(name)["entries"]:
            call = parse_expression(entry, frozenset(program.defs))
            ok, before, after = _agree(program, residual, call)
            assert ok, (name, entry, before.kind, after.kind)
            checked += 1
    report(
        3,
        True,
        f"{len(programs)} generated programs + fixtures, "
        f"{checked} entry calls agree at fuel 10^6",
    )


# ---------------------------------------------------------------------------


def test_criterion_4_no_accidental_termination():
    program = fixture_program("loop")
    residual = supercompile(program)
    call = parse_expression("main", frozenset(program.defs))
    for fuel in (1_000, 10_000, 100_000):
        before = eval_program(program, call, fuel)
        after = eval_program(residual, call, fuel)
        assert before.kind == "out_of_fuel", fuel
        assert after.kind == "out_of_fuel", fuel
    report(4, True, "(\\x -> 42) (loop 1) stays divergent at every tested fuel")


# ---------------------------------------------------------------------------


def test_criterion_5_improvement():
    samples = 0
    for name in FIXTURE_NAMES:
        program = fixture_program(name)
        residual = supercompile(program)
        manifest = fixture_manifest(name)
        fuel = manifest["fuel"] or FUEL
        for entry in manifest["entries"]:
            call = parse_expression(entry, frozenset(program.defs))
            before = eval_program(program, call, fuel)
            after = eval_program(residual, call, fuel)
            if before.kind == "value" and after.kind == "value":
                assert after.calls <= before.calls, (name, entry)
                samples += 1
    report(5, True, f"residual call count <= original on all {samples} samples")


# ---------------------------------------------------------------------------


def test_criterion_6_measure_and_memo_invariants():
    for name in FIXTURE_NAMES:
        residual = supercompile(fixture_program(name), assert_measure=True)
        assert residual.defs, name
    report(
        6,
        True,
        "measure decrease and memo-list invariant hold on all fixtures "
        "(including the upwards/downwards generalization stressors)",
    )


# ---------------------------------------------------------------------------


def _oracle_closure(terms):
    rel = set()
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(terms, terms):
            if (a, b) in rel:
                continue
            ok = (
                (isinstance(a, Var) and isinstance(b, Var))
                or any((a, c) in rel for c in children(b))
                or (
                    isinstance(a, CtorApp)
                    and isinstance(b, CtorApp)
                    and a.ctor == b.ctor
                    and len(a.args) == len(b.args)
                    and all((x, y) in rel for x, y in zip(a.args, b.args))
                )
            )
            if ok:
                rel.add((a, b))
                changed = True
    return rel


def _term_universe(max_size):
    by_size = {1: [Var("x")]}
    for size in range(2, max_size + 1):
        terms = [CtorApp("S1", (t,)) for t in by_size[size - 1]]
        for ls in range(1, size - 1):
            for l in by_size[ls]:
                for r in by_size[size - 1 - ls]:
                    terms.append(CtorApp("S2", (l, r)))
        by_size[size] = terms
    return [t for ts in by_size.values() for t in ts]


def _random_term(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return rng.choice(
            [Var("a"), Var("b"), IntLit(rng.randrange(3)), CtorApp("Nil", ())]
        )
    if roll < 0.45:
        return App(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if roll < 0.6:
        return CtorApp(
            "Cons", (_random_term(rng, depth - 1), _random_term(rng, depth - 1))
        )
    if roll < 0.75:
        return CtorApp("Leaf", (_random_term(rng, depth - 1),))
    if roll < 0.9:
        return PrimOp(
            rng.choice(["+", "*"]),
            _random_term(rng, depth - 1),
            _random_term(rng, depth - 1),
        )
    return App(Global(rng.choice(["f", "g"])), _random_term(rng, depth - 1))


def test_criterion_7_machinery_oracles():
    t0 = time.perf_counter()
    universe = _term_universe(7)
    rel = _oracle_closure(universe)
    pairs = 0
    for a, b in itertools.product(universe, universe):
        assert embeds(a, b) == ((a, b) in rel), (a, b)
        pairs += 1
    oracle_time = time.perf_counter() - t0
    assert oracle_time < 60, oracle_time

    # figure rows: embedding column and msg columns
    pe = lambda t: parse_expression(t, frozenset({"fac"}))
    assert embeds(pe("e"), pe("Just e"))
    assert embeds(pe("Right e"), pe("Right (P e e')"))
    assert embeds(pe("fac y"), pe("fac (y - 1)"))
    g = msg(pe("Right e"), pe("Right (P e e')"))
    assert len(g.holes) == 1 and g.common == CtorApp(
        "Right", (Var(g.holes[0], fresh=True),)
    )
    g = msg(pe("fac y"), pe("fac (y - 1)"))
    assert len(g.holes) == 1
    assert g.theta1[g.holes[0]] == Var("y")
    assert g.theta2[g.holes[0]] == PrimOp("-", Var("y"), IntLit(1))

    rng = random.Random(777)
    for _ in range(10_000):
        t1 = _random_term(rng, rng.randrange(1, 5))
        t2 = _random_term(rng, rng.randrange(1, 5))
        g = msg(t1, t2)
        assert alpha_eq(substitute(dict(g.theta1), g.common), t1)
        assert alpha_eq(substitute(dict(g.theta2), g.common), t2)
        common, parts, holes = split(t1, t2)
        assert substitute(dict(zip(holes, parts)), common) == t1
    report(
        7,
        True,
        f"embedding matches the bottom-up oracle on {pairs} uniform pairs "
        f"({oracle_time:.1f}s); msg/split laws hold on 10^4 random pairs; "
        "figure rows reproduce",
    )


# ---------------------------------------------------------------------------

DIVERGE = parse_expression("letrec d = \\u -> d u in d 0")


def test_criterion_8_strictness_soundness():
    checked = 0
    for name in FIXTURE_NAMES:
        program = fixture_program(name)
        for body in program.defs.values():
            _, inner = unfold_lambdas(body)
            fv = free_vars(inner)
            for x in strict_vars(inner):
                filled = substitute({v: DIVERGE for v in fv}, inner)
                out = eval_expr(filled, program.defs, 30_000)
                assert out.kind == "out_of_fuel", (name, x, out.kind)
                checked += 1
    report(
        8,
        True,
        f"{checked} strict-variable substitutions all diverge as predicted",
    )
