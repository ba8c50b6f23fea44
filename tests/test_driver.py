import gc
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deforest import (
    Alt,
    App,
    Case,
    CtorApp,
    CtorPat,
    IntLit,
    IntPat,
    Lambda,
    Let,
    PrimOp,
    Var,
    eval_program,
    parse_expression,
    parse_program,
    pretty_program,
    program_alpha_eq,
    supercompile,
)
from deforest import driver
from deforest.cli import PASSING, _verdict
from deforest.analysis import is_annoying
from deforest.driver import DriveSession, _refocus, plug_r
from deforest.generalize import embeds
from deforest.syntax import (
    FreshSupply,
    Global,
    Program,
    SyntaxError_,
    alpha_eq,
    canonical,
    free_vars,
    fun_names,
    pattern_binders,
    select_alt,
    substitute,
    unfold_apps,
    unfold_lambdas,
    validate_program,
)

from conftest import (
    FIXTURE_NAMES,
    FIXTURES,
    entry_calls_for,
    expressions,
    fixture_golden,
    fixture_manifest,
    fixture_program,
    all_identifiers,
    generate_programs,
    subterms,
)
import grammar_fuzz


def test_constants_fold_during_driving():
    p = parse_program("main = 2 + 3;")
    out = supercompile(p)
    assert out.defs["main"] == IntLit(5)


def test_copy_propagation_rule():
    p = parse_program("main y = let x = y in K x x;")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert body == CtorApp("K", (Var("y"), Var("y")))


def test_global_bindings_propagate_like_variables():
    p = parse_program("sq u = u * u; main y = let f = sq in f y;")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert body == PrimOp("*", Var("y"), Var("y"))


def _checked(text, entry, fuel=1000):
    """The residual of text as printed, after `check`'s comparison of the
    original with it on entry passes.
    """
    program = parse_program(text)
    residual = supercompile(program)
    call = parse_expression(entry, frozenset(program.defs))
    before, after = eval_program(program, call, fuel), eval_program(residual, call, fuel)
    assert _verdict(before, after) in PASSING, (before, after)
    return pretty_program(residual), after


def test_let_whose_bound_term_drives_to_a_value_is_substituted():
    # R13 keeps these lets, whose binders are used twice, drives the bound
    # term, and substitutes the value it drives to
    cases = [
        ("main y = let x = 2 + 1 in x * x;", "main y = 9;\n"),
        ("main y = let x = (\\a -> a) y in K x x;", "main y = K y y;\n"),
        ("main y = let t = (\\a -> []) y in K t t;", "main y = K [] [];\n"),
        ("f1 = 5; main x = let y = f1 in y + y;", "main x = 10;\n"),
    ]
    for text, residual in cases:
        assert _checked(text, "main 1")[0] == residual


def test_divergent_bound_terms_are_kept():
    # R13 keeps a let whose bound term diverges; and a global without
    # parameters is not a value, so f0 does not drop the copy of f1
    cases = [
        ("loop n = loop n; main b = let x = loop 1 in 5;",
         "h1 = h1;\nmain b = let x = h1 in 5;\n"),
        ("f1 = f1; f0 y = 0; main x = f0 f1;",
         "h2 = h2;\nmain x = let y1 = h2 in 0;\n"),
    ]
    for text, residual in cases:
        printed, after = _checked(text, "main 1")
        assert printed == residual
        assert after.kind == "out_of_fuel"


@pytest.mark.parametrize("seed", [1, 2])
def test_grammar_fuzz_keeps_termination_and_values(seed):
    tally = grammar_fuzz.fuzz(seed, 500)
    assert tally.refused < tally.programs // 4
    assert not tally.unbuilt, tally.unbuilt[0]
    assert not tally.to_value, tally.to_value[0]
    assert not tally.value_diffs, tally.value_diffs[0]
    assert not tally.calls_grow, tally.calls_grow[0]
    assert not tally.unfolds_grow, tally.unfolds_grow[0]
    assert not tally.second_faults, tally.second_faults[0]


def test_strict_linear_let_is_substituted():
    p = parse_program("main y = let x = y + 1 in x * 2;")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert body == PrimOp("*", PrimOp("+", Var("y"), IntLit(1)), IntLit(2))


def test_non_strict_let_is_kept():
    p = parse_program("main y = let x = y + 1 in 7;")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert isinstance(body, Let)
    assert body.bound == PrimOp("+", Var("y"), IntLit(1))
    assert body.body == IntLit(7)


def test_non_linear_let_is_kept():
    p = parse_program("main y = let x = y + 1 in x * x;")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert isinstance(body, Let)


def test_positive_information_propagation():
    # the scrutinee variable is rewritten to the matched pattern in branches
    p = parse_program("main xs = case xs of { [] -> xs; (a:b) -> xs };")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert isinstance(body, Case)
    assert body.alts[0].body == CtorApp("Nil", ())
    cons_alt = body.alts[1]
    binders = pattern_binders(cons_alt.pattern)
    assert cons_alt.body == CtorApp("Cons", tuple(Var(b) for b in binders))


def test_case_of_known_constructor_reduces():
    p = parse_program("main y = case (1 : y) of { [] -> 0; (a:b) -> K a b };")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert body == CtorApp("K", (IntLit(1), Var("y")))


def test_case_of_int_default_substitutes_literal():
    p = parse_program("main = case 7 of { 0 -> 1; n -> n * n };")
    out = supercompile(p)
    assert out.defs["main"] == IntLit(49)


def test_annoying_case_drives_scrutinee_and_branches():
    p = parse_program("f u = u; main x = case x + 1 of { 0 -> f 1; n -> 2 };")
    out = supercompile(p)
    _, body = unfold_lambdas(out.defs["main"])
    assert isinstance(body, Case)
    assert body.scrutinee == PrimOp("+", Var("x"), IntLit(1))
    assert body.alts[0].body == IntLit(1)  # the call is unfolded


def test_value_in_empty_context_unchanged():
    p = parse_program("main = \\x -> x : [];")
    out = supercompile(p)
    assert alpha_eq(out.defs["main"], parse_expression("\\x -> [x]"))


def test_fresh_supply_distinct_and_reserved():
    supply = FreshSupply({"v1", "h1"})
    a, b = supply.var(), supply.var()
    assert a != b
    assert a not in ("v1", "h1") and b not in ("v1", "h1")
    assert supply.fun() != "h1"
    hole = supply.var("z")
    assert hole not in ("v1", "h1", a, b) and hole.startswith("z")


def test_generalization_hole_is_not_copied():
    # R12 would make both uses of x a copy of the hole, and so duplicate the
    # driven part that fills it
    supply = FreshSupply({"x"})
    hole = supply.var("z")
    term = Let("x", Var(hole), PrimOp("+", Var("x"), Var("x")))
    session = DriveSession(supply, {})
    session.holes.add(hole)
    assert session.drive(term, []) == term
    # the same variable, not a hole, is copied
    assert DriveSession(FreshSupply({"x", hole}), {}).drive(term, []) == PrimOp(
        "+", Var(hole), Var(hole)
    )


def test_fresh_supply_deterministic():
    names1 = [FreshSupply({"x"}).var() for _ in range(1)]
    names2 = [FreshSupply({"x"}).var() for _ in range(1)]
    assert names1 == names2


# ---------------------------------------------------------------------------
# fixture-level properties


def test_fixture_goldens(fixture_name):
    residual = supercompile(fixture_program(fixture_name))
    assert program_alpha_eq(residual, fixture_golden(fixture_name)), pretty_program(
        residual
    )


def test_no_markers_or_undefined_functions_in_residuals(fixture_name):
    validate_program(supercompile(fixture_program(fixture_name)))


def test_supercompile_leaves_no_cyclic_garbage():
    # a recursive closure or a self-referencing memo on the build path is a
    # reference cycle that only the cyclic collector frees
    programs = [fixture_program(name) for name in FIXTURE_NAMES]
    gc.collect()
    gc.disable()
    try:
        for program in programs:
            pretty_program(supercompile(program))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_measure_and_memo_assertions_hold_on_fixtures(fixture_name):
    residual = supercompile(fixture_program(fixture_name), assert_measure=True)
    assert residual.defs


def test_build_is_deterministic(fixture_name):
    p1 = supercompile(fixture_program(fixture_name))
    p2 = supercompile(fixture_program(fixture_name))
    assert pretty_program(p1) == pretty_program(p2)


def test_residual_case_branches_forget_the_scrutinee_variable(fixture_name):
    # positive information: a case over a variable never mentions that
    # variable in a branch where a constructor or literal pattern matched
    residual = supercompile(fixture_program(fixture_name))
    for body in residual.defs.values():
        for t in subterms(body):
            match t:
                case Case(Var(x), alts):
                    for alt in alts:
                        if isinstance(alt.pattern, (CtorPat, IntPat)):
                            assert x not in free_vars(alt.body), pretty_program(
                                residual
                            )


def test_semantic_preservation_on_fixture_entries(fixture_name):
    program = fixture_program(fixture_name)
    residual = supercompile(program)
    manifest = fixture_manifest(fixture_name)
    fuel = manifest["fuel"] or 1_000_000
    for entry in manifest["entries"]:
        call = parse_expression(entry, frozenset(program.defs))
        before = eval_program(program, call, fuel)
        after = eval_program(residual, call, fuel)
        assert before.kind == after.kind
        if before.kind == "value":
            assert alpha_eq(before.value, after.value)
            assert after.calls <= before.calls


def test_fuzz_preservation_small():
    rng = random.Random(23)
    for program in generate_programs(60, seed=17):
        residual = supercompile(program)
        for call in entry_calls_for(program, rng):
            before = eval_program(program, call, 300_000)
            after = eval_program(residual, call, 300_000)
            assert before.kind == after.kind == "value", pretty_program(program)
            assert alpha_eq(before.value, after.value), pretty_program(program)


def test_fuzz_totality_nothing_raises():
    for program in generate_programs(80, seed=99):
        residual = supercompile(program)
        assert residual.defs


def _via(lines, rule):
    """The `-> h (where)` ends of the trace lines of rule."""
    return [line.split(" -> ")[1] for line in lines if line.split(" ", 1)[0] == rule]


def test_trace_emits_rule_lines():
    lines = []
    supercompile(fixture_program("factorial"), trace=lines.append)
    assert any(line.startswith("R3 ") for line in lines)
    assert any(line.startswith("Dapp4 ") for line in lines)
    assert all(" w=" in line and " rho=" in line and " depth=" in line for line in lines)
    # the lines of folds and whistles name the memo entry hit: append_self
    # folds into an ancestor and whistles downwards and upwards; an append
    # chain also folds into a completed definition of the table
    whistled, folded = [], []
    residual = supercompile(fixture_program("append_self"), trace=whistled.append)
    chain = supercompile(parse_program(append_chain(3)), trace=folded.append)
    for rule in ("Dapp1", "Dapp2", "Dapp3", "Dapp4a"):
        vias = _via(whistled + folded, rule)
        assert vias and all(re.fullmatch(r"h\d+ \((rho|table)\)", v) for v in vias), rule
    for line in lines + whistled + folded:
        assert (" -> " in line) == line.startswith(("Dapp1 ", "Dapp2 ", "Dapp3 ", "Dapp4a ")), line
    # Dapp4a names the activation that Dapp2 unwound to
    assert _via(whistled, "Dapp4a") == _via(whistled, "Dapp2")
    assert {v.split()[0] for v in _via(whistled, "Dapp1")} <= set(residual.defs)
    table = [v.split()[0] for v in _via(folded, "Dapp1") if v.endswith("(table)")]
    assert table and set(table) <= set(chain.defs)


def test_case_of_constructor_lets_keep_their_context():
    # R16 drives the lets it makes in the context of the case, so R13 sees
    # the frame `[] * 2` instead of a let wrapped around the plugged context;
    # y takes h's place in the walk that renames t, so no R12 comes between
    lines = []
    p = parse_program("main y = (case Cons y (Cons y Nil) of { (h:t) -> h + 1 }) * 2;")
    residual = supercompile(p, trace=lines.append)
    rules = [line.split()[0] for line in lines]
    after = lines[rules.index("R16") + 1]
    assert after.startswith("R13 ") and after.endswith(" depth=1")
    assert program_alpha_eq(residual, parse_program("main y = let t = [y] in (y + 1) * 2;"))


def decompose(e, context=()):
    """The focus and the context that R8, R10 and R19 alone take e in
    context apart into: the reference for where driving goes on.
    """
    context = list(context)
    while True:
        match e:
            case App(fun, arg) if not (
                is_annoying(e) or isinstance(unfold_apps(e)[0], Lambda)
            ):  # R10
                e, context = fun, context + [("arg", arg)]
            case PrimOp(op, lhs, rhs) if not (
                is_annoying(e) or isinstance(lhs, IntLit) and isinstance(rhs, IntLit)
            ):  # R8
                if isinstance(lhs, IntLit) or is_annoying(lhs):
                    e, context = rhs, context + [("prim_r", op, lhs)]
                else:
                    e, context = lhs, context + [("prim_l", op, rhs)]
            case Case(scrut, alts) if not (
                is_annoying(scrut)
                or isinstance(scrut, (IntLit, CtorApp)) and select_alt(scrut, alts) is not None
            ):  # R19
                e, context = scrut, context + [("case", alts)]
            case _:
                return e, context


def _alts(bodies):
    b1, b2, b3 = bodies
    return (
        Alt(CtorPat("Nil", ()), b1),
        Alt(CtorPat("Cons", ("p", "q")), b2),
        Alt(IntPat(0), b3),
    )


_OPS = st.sampled_from(["+", "-", "*"])
_FRAMES = st.one_of(
    expressions(4).map(lambda a: ("arg", a)),
    st.tuples(expressions(4), expressions(4), expressions(4)).map(lambda b: ("case", _alts(b))),
    st.tuples(_OPS, expressions(4)).map(lambda t: ("prim_l", *t)),
    st.tuples(_OPS, st.sampled_from([IntLit(1), Var("x")])).map(lambda t: ("prim_r", *t)),
)
# terms whose decomposition is deep: frames plugged around a term
_PLUGGED = st.builds(plug_r, st.lists(_FRAMES, max_size=6), expressions())


@settings(max_examples=300, deadline=None)
@given(st.one_of(expressions(), _PLUGGED), expressions())
def test_refocus_agrees_with_plugging_and_decomposing(term, result):
    # driving goes on after a rewrite where it would be had it plugged the
    # result into the whole context and taken the term apart again
    _, frames = decompose(term)
    for i in range(len(frames) + 1):
        context = frames[:i]
        assert decompose(plug_r(context, result)) == decompose(*_refocus(result, context))


def test_flags_do_not_change_the_residual():
    # tracing, strictness explanations and measure checks only observe
    programs = [fixture_program(name) for name in FIXTURE_NAMES] + generate_programs(40)
    for program in programs:
        lines = []
        flagged = supercompile(
            program, trace=lines.append, explain_strict=lines.append, assert_measure=True
        )
        assert lines
        assert pretty_program(flagged) == pretty_program(supercompile(program))


APPEND = "append xs ys = case xs of { [] -> ys; (x:xs') -> x : append xs' ys };\n"
MAP = (
    "map f xs = case xs of { [] -> []; (x:xs') -> f x : map f xs' };\n"
    "inc x = x + 1;\ndbl x = x * 2;\n"
)


def append_chain(k):
    """main x0 .. xk = append (... (append x0 x1) ...) xk"""
    e = "x0"
    for i in range(1, k + 1):
        e = f"append ({e}) x{i}"
    return APPEND + f"main {' '.join(f'x{i}' for i in range(k + 1))} = {e};"


# Run in a fresh process at Python's default recursion limit, with three
# program texts as arguments.  Each check prints its label, followed by the
# error when it raises RecursionError.
DEFAULT_LIMIT_SCRIPT = """
import sys
from deforest import App, CtorApp, Global, IntLit, eval_program, parse_program, supercompile

def attempt(label, run):
    try:
        run()
    except RecursionError:
        label += " RecursionError"
    print(label)

def literal_list(n):
    out = CtorApp("Nil", ())
    for _ in range(n):
        out = CtorApp("Cons", (IntLit(1), out))
    return out

append_chain, map_chain, double_append = map(parse_program, sys.argv[1:])
attempt("append k=8", lambda: supercompile(append_chain))
attempt("map k=12", lambda: supercompile(map_chain))
call = App(App(App(Global("main"), literal_list(1000)), literal_list(1000)), literal_list(1000))
attempt("eval 3 x 1000", lambda: eval_program(double_append, call, 10_000_000))
"""


def test_driving_and_eval_fit_the_default_recursion_limit():
    # Tail rules drive in a loop and the closed-call check loops down a list
    # literal's tail, so stack depth follows how deeply the input nests.
    mapped = "xs"
    for f in ["inc", "dbl"] * 6:
        mapped = f"map {f} ({mapped})"
    texts = [
        append_chain(8),
        MAP + f"main xs = {mapped};",
        (FIXTURES / "double_append.core").read_text(),
    ]
    out = subprocess.run(
        [sys.executable, "-c", DEFAULT_LIMIT_SCRIPT, *texts],
        capture_output=True,
        text=True,
        cwd=FIXTURES.parents[1],  # src/, so that the package imports uninstalled
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines() == ["append k=8", "map k=12", "eval 3 x 1000"]


@pytest.mark.parametrize("k", range(2, 13))
def test_append_chain_has_one_definition_per_append(k):
    # a term driven in one case branch and met again in its sibling folds
    # into the definition completed for it, so the chain yields k
    # definitions and not 2^(k-1)+1 (the entry takes the definition it
    # forwards to); counting trace lines keeps it exact
    lines = []
    residual = supercompile(parse_program(append_chain(k)), trace=lines.append)
    assert len(residual.defs) == k
    assert sum(line.startswith("Dapp4 ") for line in lines) <= k * k


def test_append_chain_definitions_differ_modulo_renaming():
    residual = supercompile(parse_program(append_chain(6)))
    shapes = [canonical(body).shape for body in residual.defs.values()]
    assert len(set(shapes)) == len(shapes) == 6
    call = parse_expression("main [1] [2, 3] [] [4] [5, 6] [7] [8]", frozenset({"main"}))
    assert eval_program(residual, call).value == parse_expression("[1, 2, 3, 4, 5, 6, 7, 8]")


def test_chains_build_no_whistle_form(monkeypatch):
    # the key walk's symbols in preorder and in postorder refuse every
    # whistle pair on the append and alternating map chains, so `embeds` is
    # never called; the control program shows that a call is counted
    built = []
    monkeypatch.setattr(driver, "embeds", lambda a, b: built.append((a, b)) or embeds(a, b))
    for k in range(2, 8):
        supercompile(parse_program(append_chain(k)))
    for k in range(4, 13):
        mapped = "xs"
        for i in range(k):
            mapped = f"map {('inc', 'dbl')[i % 2]} ({mapped})"
        supercompile(parse_program(MAP + f"main xs = {mapped};"))
    assert built == []
    supercompile(fixture_program("rev_accum"))
    assert built


def test_definitions_of_an_abandoned_drive_leave_the_table():
    # h1 = f xs xs completes g t, whose definition calls h1; then f t z
    # unwinds the drive to h1 (Dapp2), which is never defined.  The
    # generalized drive meets g t again and must drive it anew, not call
    # the definition that calls h1
    p = parse_program(
        "f xs ys = case xs of { [] -> 0; (a:t) -> P (g t) (f t ys) };\n"
        "g zs = case zs of { [] -> 1; (b:u) -> P (g u) (f u u) };\n"
        "main xs = f xs xs;"
    )
    expected = parse_program(
        "h4 t = case t of { [] -> 1; (b : u) -> P (h4 u) (h3 u u) };"
        "h3 xs z = let ys = z in case xs of { [] -> 0; (a : t) -> P (h4 t) (h3 t ys) };"
        "main xs = h3 xs xs;"
    )
    lines = []
    residual = supercompile(p, trace=lines.append)
    assert any(line.startswith("Dapp4a ") for line in lines)
    assert program_alpha_eq(residual, expected), pretty_program(residual)


def test_session_holds_one_record_of_the_drive():
    # the program above rolls back through Dapp4a: afterwards the memo stack
    # is empty, and the table, the fold index and the fold log hold the same
    # entries, none of them from the abandoned drive, each with its residual
    # definition
    p = parse_program(
        "f xs ys = case xs of { [] -> 0; (a:t) -> P (g t) (f t ys) };\n"
        "g zs = case zs of { [] -> 1; (b:u) -> P (g u) (f u u) };\n"
        "main xs = f xs xs;"
    )
    names = set(p.defs).union(*map(all_identifiers, p.defs.values()))
    lines = []
    session = DriveSession(FreshSupply(names), p.defs, trace=lines.append)
    session.drive(unfold_lambdas(p.defs["main"])[1], [])
    assert any(line.startswith("Dapp4a ") for line in lines)
    assert session.rho == []
    assert list(session.table) == ["h4", "h3"]
    indexed = [entry for entries in session.done.values() for entry in entries]
    assert sorted(e.name for e in indexed) == ["h3", "h4"]
    assert all(session.table[e.name] is e for e in indexed)
    assert all(entry.body is not None for entry in indexed)
    assert set(session.folds) <= set(session.table)
    assert set(session.table) <= set(session.folds)


def test_every_table_definition_is_recursive(monkeypatch):
    # Dapp4b keeps an activation as a definition only when it calls itself:
    # its name is reachable from its own body through the table's bodies,
    # read here with fun_names as the reference for the fold log
    sessions = []

    class Recorded(DriveSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(driver, "DriveSession", Recorded)
    programs = [fixture_program(name) for name in FIXTURE_NAMES]
    programs += generate_programs(200) + generate_programs(200, 2)
    programs.append(parse_program(append_chain(6)))
    not_recursive = []
    for program in programs:
        supercompile(program)
        table = sessions.pop().table
        for name, entry in table.items():
            reached, worklist = set(), [entry.body]
            while worklist and name not in reached:
                for callee in fun_names(worklist.pop()) - reached:
                    reached.add(callee)
                    if callee in table:
                        worklist.append(table[callee].body)
            if name not in reached:
                not_recursive.append((pretty_program(program), name))
    assert not not_recursive, (len(not_recursive), not_recursive[0])


def test_letrec_in_source_is_driven():
    p = parse_program(
        "main y = letrec go = \\xs -> case xs of { [] -> 0; (a:b) -> a + go b } in go y;"
    )
    out = supercompile(p)
    call = parse_expression("main [1,2,3]", frozenset(p.defs))
    assert eval_program(out, call).value == IntLit(6)
    assert eval_program(p, call).value == IntLit(6)


def test_residual_definitions_are_letrec_free_reachable_and_closed():
    # a recursive activation becomes a top-level definition when it
    # completes, and the program keeps only what its entry reaches; no term
    # holds a letrec, because the parser makes each one a definition
    programs = [fixture_program(name) for name in FIXTURE_NAMES]
    programs += generate_programs(200)
    programs.append(parse_program(append_chain(6)))
    programs.append(parse_program("main y = letrec go = \\xs -> go xs in go y;"))
    for program in programs:
        externals = set().union(*map(free_vars, program.defs.values()))
        residual = supercompile(program)
        reached, worklist = {residual.entry}, [residual.entry]
        while worklist:
            for name in fun_names(residual.defs[worklist.pop()]) - reached:
                reached.add(name)
                worklist.append(name)
        assert reached == set(residual.defs)
        for body in residual.defs.values():
            assert free_vars(body) <= externals


def test_residual_text_reads_back_as_the_residual():
    # a binder that driving emits with a definition's name is renamed, as
    # `main k` is here, so no call that an unfolding puts under it reads
    # back as the variable
    found = "k x = x; h = \\y -> k y; main k = h + 1;"
    guarded = "k x = x; h = \\y -> k y; main k = case k of { 0 -> 1; n -> h + 1 };"
    programs = [fixture_program(name) for name in FIXTURE_NAMES] + generate_programs(200, 0)
    programs += [parse_program(found), parse_program(guarded)]
    for program in programs:
        residual = supercompile(program)
        assert program_alpha_eq(parse_program(pretty_program(residual)), residual)
    assert pretty_program(supercompile(parse_program(found))) == (
        "k x = x;\nmain k1 = (\\y -> k y) + 1;\n"
    )
    p = parse_program(guarded)
    call = parse_expression("main 0", frozenset(p.defs))
    after = parse_program(pretty_program(supercompile(p)))
    assert eval_program(p, call).value == eval_program(after, call).value == IntLit(1)


def test_residual_calls_without_definitions_are_listed(monkeypatch):
    # an internal error: every name the walk from the entry meets without a
    # definition is listed, sorted
    residual = App(Global("zz"), App(Global("aa"), Global("zz")))
    monkeypatch.setattr(DriveSession, "drive", lambda self, e, context, parent=None: residual)
    with pytest.raises(driver.DriverError, match=r"unknown functions \['aa', 'zz'\]"):
        supercompile(parse_program("main = 1;"))


def test_sibling_source_letrecs_keep_their_own_definitions():
    # each branch binds its own go, which the residual still calls under a
    # stuck case; the second one is a definition of its own, go', unless it
    # binds the same right-hand side
    def source(rhs0, rhs1):
        return parse_program(
            "main x = case x of {"
            f" 0 -> letrec go = \\n -> {rhs0} in case (\\y -> go y) of {{ _ -> 1 }};"
            f" _ -> letrec go = \\n -> {rhs1} in case (\\y -> go y) of {{ _ -> 2 }} }};"
        )

    def calling(f0, f1):
        return (
            "main x = case x of {"
            f" 0 -> case (\\y -> {f0} y) of {{ _ -> 1 }};"
            f" _ -> case (\\y -> {f1} y) of {{ _ -> 2 }} }};"
        )

    two = parse_program("inc n = n + 1;\ndbl n = n * 2;\n" + calling("inc", "dbl"))
    assert program_alpha_eq(supercompile(source("n + 1", "n * 2")), two)
    one = parse_program("inc n = n + 1;\n" + calling("inc", "inc"))
    assert program_alpha_eq(supercompile(source("n + 1", "n + 1")), one)


def test_activation_called_back_only_from_a_nested_definition_stays_a_function():
    # h1 (for f xs) calls h2 (for g t), and only h2's definition calls h1;
    # Dapp4b must see that call through the table, or h1 is inlined and lost.
    # The entry forwards to h1 and takes its definition, and the rename
    # reaches h2's call of h1
    p = parse_program(
        "f xs = case xs of { [] -> 0; (a:t) -> g t };\n"
        "g ys = case ys of { [] -> 1; (b:u) -> g u + f u };\n"
        "main xs = f xs;"
    )
    expected = parse_program(
        "h2 t = case t of { [] -> 1; (b:u) -> h2 u + main u };\n"
        "main xs = case xs of { [] -> 0; (a:t) -> h2 t };"
    )
    assert program_alpha_eq(supercompile(p), expected)


def test_entry_keeps_a_call_on_its_parameters_out_of_order():
    printed, _ = _checked(
        "f x y = case x of { [] -> y; (h:t) -> h : f t y }; main a b = f b a;", "main [1] [2]"
    )
    assert printed.endswith("main a b = h1 b a;\n")


def test_closed_divergent_entry_becomes_a_call_of_itself():
    # a closed activation is a definition without parameters, called bare,
    # and the entry that only calls it takes its definition
    program = parse_program("f n = f n; main = f 1;")
    residual = supercompile(program)
    assert pretty_program(residual) == "main = main;\n"
    call = parse_expression("main", frozenset({"main"}))
    for fuel in (10, 100, 20_000):
        before, after = eval_program(program, call, fuel), eval_program(residual, call, fuel)
        assert before.kind == after.kind == "out_of_fuel"
        assert after.unfolds == fuel


def test_entry_named_like_a_binder_keeps_its_call():
    # renamed calls of `main` under a binder `main` would read back as that
    # variable, so the entry keeps forwarding
    program = parse_program(
        "f xs = case xs of { [] -> 0; (a:t) -> let main = a * a in main + main + f t };\n"
        "main xs = f xs;"
    )
    residual = supercompile(program)
    assert unfold_apps(unfold_lambdas(residual.defs["main"])[1])[0] == Global("h1")
    assert program_alpha_eq(parse_program(pretty_program(residual)), residual)


def test_no_residual_entry_forwards_its_parameters_to_a_table_definition():
    # no entry of generate_programs(40) drives to a forwarding call; five
    # fixtures and five of generate_programs(200, 2) do
    programs = (
        [fixture_program(name) for name in FIXTURE_NAMES]
        + generate_programs(40)
        + generate_programs(200, 2)
    )
    for program in programs:
        residual = supercompile(program)
        params, body = unfold_lambdas(residual.defs[program.entry])
        head, args = unfold_apps(body)
        assert not (
            type(head) is Global
            and head.name in residual.defs
            and head.name not in program.defs
            and args == [Var(x) for x in params]
        ), pretty_program(residual)


def test_golden_comparison_respects_shadowing():
    shadowed = parse_program("main = \\x y x w -> w;")
    third = parse_program("main = \\a b c d -> c;")
    call = parse_expression("main 1 2 3 4", frozenset({"main"}))
    assert eval_program(shadowed, call).value != eval_program(third, call).value
    assert not program_alpha_eq(shadowed, third)
    assert program_alpha_eq(shadowed, parse_program("main = \\a b c d -> d;"))


def test_golden_comparison_unused_default_binder_is_a_wildcard():
    named = parse_program("main y = case y of { 0 -> 1; x -> 2 };")
    wildcard = parse_program("main y = case y of { 0 -> 1; _ -> 2 };")
    assert program_alpha_eq(named, wildcard)


def test_missing_entry_rejected():
    p = parse_program("f x = x;")
    with pytest.raises(SyntaxError_):
        supercompile(p)


def test_undefined_function_rejected():
    # the parser reads an unknown name as a variable, so only a program built
    # by hand can call an undefined function
    p = Program({"main": Global("nope")})
    with pytest.raises(SyntaxError_, match=r"main: undefined functions \['nope'\]"):
        supercompile(p)


def test_validate_program_lists_identifiers_and_externals():
    programs = [fixture_program(n) for n in FIXTURE_NAMES] + generate_programs(200, 0)
    for p in programs:
        names, externals = validate_program(p)
        assert names == set().union(*map(all_identifiers, p.defs.values()))
        assert externals == set().union(*map(free_vars, p.defs.values()))


@pytest.mark.parametrize(
    "text, message",
    [
        # undefined functions come before a case error of the same definition
        ("main x = nope (case x of { 0 -> 1; 0 -> 2 });", r"main: undefined functions \['nope'\]"),
        # a definition's errors come before those of the next one
        ("f x = case x of { y -> 1; 0 -> 2 }; main x = nope x;", "f: default alternative"),
        # the first bad case in preorder: an outer case before its scrutinee
        ("main x = case (case x of { 0 -> 1; 0 -> 2 }) of { y -> 1; 0 -> 2 };", "main: default"),
        ("main x = case x of { y -> case x of { 0 -> 1; 0 -> 2 }; 0 -> 2 };", "main: default"),
        # and a left argument before a right one
        ("main x = P (case x of { Q a a -> 1 }) (case x of { 0 -> 1; 0 -> 2 });", "main: repeated"),
        ("main x = P (case x of { 0 -> 1; 0 -> 2 }) (case x of { Q a a -> 1 });", "main: duplicate"),
    ],
)
def test_validate_program_reports_errors_in_order(text, message):
    p = parse_program(text)
    if "nope" in text:  # the parser reads an unknown name as a variable
        p = Program({n: substitute({"nope": Global("nope")}, e) for n, e in p.defs.items()})
    with pytest.raises(SyntaxError_, match=message):
        validate_program(p)


def test_positive_information_reaches_the_context_and_yields_to_binders():
    # R15 substitutes the pattern's value into the context frames as well as
    # the branch, in the walk that renames the pattern binders; a binder
    # that shadows the scrutinee variable keeps its renaming
    cases = [
        ("main xs = (case xs of { [] -> \\y -> y; (h:t) -> \\y -> y }) xs;",
         "main xs = case xs of { [] -> []; (h1 : t1) -> h1 : t1 };\n"),
        ("main xs = case xs of { (xs:t) -> xs; [] -> 0 };",
         "main xs = case xs of { (xs1 : t1) -> xs1; [] -> 0 };\n"),
        ("main n = (case n of { 0 -> \\y -> y + n; m -> \\y -> y * m }) n;",
         "main n = case n of { 0 -> 0; m1 -> m1 * m1 };\n"),
    ]
    for text, residual in cases:
        assert pretty_program(supercompile(parse_program(text))) == residual


def test_upward_generalization_request_names_the_filled_holes():
    # Dapp2 fires while driving the common term of a generalization, so its
    # request names that term's holes; the activation it unwinds to must see
    # them filled with the driven parts, or the residual function takes one
    # more parameter and one more step per call
    p = parse_program(
        "f0 xs n = case xs of { [] -> 3 - n * (n + n) + (n + (1 - n));"
        " (h : t) -> f0 t (h * (case t of { [] -> n; (h2 : t2) -> h })) };"
        "main inp = case inp of {"
        " [] -> f0 (case inp of { [] -> inp; (h2 : t2) -> [] })"
        " (case inp of { [] -> 0; (h2 : t2) -> h2 });"
        " (h2 : t2) -> f0 t2 h2 + (case inp of { [] -> 1; (h2 : t2) -> 0 }) };"
    )
    expected = parse_program(
        "h5 t21 z3 h21 z4 = let n3 = z3 in case t21 of {"
        " [] -> let t24 = z4 in 3 - n3 * (n3 + n3) + (n3 + (1 - n3)) + 0;"
        " (h6 : t3) -> h5 t3 (case t3 of { [] -> h6 * n3; (h25 : t25) -> h6 * h6 })"
        " h21 z4 };"
        "main inp = case inp of {"
        " [] -> 1;"
        " (h21 : t21) -> h5 t21 h21 h21 t21 };"
    )
    residual = supercompile(p)
    assert program_alpha_eq(residual, expected), pretty_program(residual)
    call = parse_expression("main [1, 2]", frozenset({"main"}))
    assert eval_program(residual, call).steps == 27
    # the [] branch's n drives to 0 and is substituted, so the branch folds
    call = parse_expression("main []", frozenset({"main"}))
    assert eval_program(residual, call).steps == 3


STRESS_PROGRAMS = [
    (
        "map f (map f xs) with a named function argument",
        "square x = x * x;"
        "map f xs = case xs of { [] -> []; (x:xs') -> f x : map f xs' };"
        "main xs = map square (map square xs);",
        "main [1,2]",
        True,
    ),
    (
        "zip of two mapped lists (only the first intermediate list fuses)",
        "zip xs ys = case xs of { [] -> []; (x:xs') ->"
        "  case ys of { [] -> []; (y:ys') -> P x y : zip xs' ys' } };"
        "map f xs = case xs of { [] -> []; (x:xs') -> f x : map f xs' };"
        "inc u = u + 1;"
        "main xs ys = zip (map inc xs) (map inc ys);",
        "main [1,2] [3,4]",
        True,
    ),
    (
        "length with a growing integer accumulator",
        "len xs n = case xs of { [] -> n; (x:xs') -> len xs' (n + 1) };"
        "main xs = len xs 0;",
        "main [5,6,7]",
        True,
    ),
    (
        "flatten: recursion through a call in a non-tail position",
        "append xs ys = case xs of { [] -> ys; (x:xs') -> x : append xs' ys };"
        "flatten xs = case xs of { [] -> []; (x:xs') -> append x (flatten xs') };"
        "main xs = flatten xs;",
        "main [[1,2],[3]]",
        True,
    ),
    (
        "double accumulating reverse",
        "rev xs acc = case xs of { [] -> acc; (x:xs') -> rev xs' (x : acc) };"
        "main xs = rev (rev xs []) [];",
        "main [1,2,3]",
        False,  # trips the (unproven) weight-decrease lemma, see notes
    ),
    (
        "append of a self-append",
        "append xs ys = case xs of { [] -> ys; (x:xs') -> x : append xs' ys };"
        "main xs = append (append xs xs) xs;",
        "main [1,2]",
        False,  # positive information duplicates the scrutinee in the context
    ),
    (
        "let binder free in its context: the kept let is renamed",
        "main x y = (let x = y * y in x + x) + x;",
        "main 3 5",
        True,
    ),
    (
        "case of a constructor: R16 binds a variable in its renaming walk",
        "main y = case Cons y Nil of { (h:t) -> h };",
        "main 1",
        True,
    ),
    (
        "case of a constructor on a default alternative",
        "main y = case Cons y Nil of { xs -> xs };",
        "main 1",
        False,  # the let that R16 makes weighs what the case weighed
    ),
    (
        "triple map fusion",
        "mapsq xs = case xs of { [] -> []; (x:xs') -> (x * x) : mapsq xs' };"
        "main xs = mapsq (mapsq (mapsq xs));",
        "main [1,2]",
        True,
    ),
    (
        "producer with arithmetic countdown",
        "upto n = case n of { 0 -> []; m -> m : upto (m - 1) };"
        "sum xs = case xs of { [] -> 0; (x:xs') -> x + sum xs' };"
        "main n = sum (upto n);",
        "main 4",
        True,
    ),
    (
        "a lambda value returned into an argument frame",
        "pick xs z = (case xs of { [] -> \\a -> a; (h:t) -> \\b -> b + h }) z;"
        "main xs z = pick xs z + pick [5] z + pick [] z;",
        "main [1] 2",
        True,
    ),
    (
        "beta reduction with more arguments than parameters",
        "main y = (\\f -> f) (\\a -> a + 1) y;",
        "main 3",
        True,
    ),
    (
        "case of a literal on a default alternative under +",
        "main y = (case 3 of { 0 -> 1; n -> n * y }) + 1;",
        "main 2",
        True,
    ),
    (
        "a kept let in the scrutinee of a case",
        "main x = case (let z = x * x in z + z) of { 0 -> 1; n -> n + x };",
        "main 3",
        True,
    ),
    (
        "a global unfolded under + and under case",
        "f u = u * 2; main x = case f x of { 0 -> 1 + f x; n -> n + f 1 };",
        "main 3",
        True,
    ),
    (
        "a variable applied to two arguments",
        "main g x = g x (x + 1) + 1;",
        "main (\\a b -> a * b) 3",
        True,
    ),
    (
        "nested lambdas in case branches",
        "main xs = case xs of { [] -> \\a b -> a; (h:t) -> \\a b -> b + h };",
        "main [1] 2 3",
        True,
    ),
    # an unfolding puts the external y of f under a binder named y, which
    # driving must rename so as not to capture it
    (
        "an external under an entry parameter of its name",
        "f x = y x; main y = f 1;",
        "main 5",
        True,
    ),
    (
        "an external under a lambda of its name",
        "f x = y x; main a = \\y -> f 1;",
        "main 0 7",
        True,
    ),
    (
        "an external under a kept let of its name",
        "f x = y x; main a = let y = a + 1 in K (f 1) y y;",
        "main 3",
        True,
    ),
    # both run out of fuel on either side, as `check` passes them
    (
        "diverges: a global without parameters passed to a function that drops it",
        "f1 = f1; f0 y = 0; main x = f0 f1;",
        "main 1",
        True,
    ),
    (
        "diverges: a generalization whose msg is a bare hole",
        "f1 b x = case f1 x g of { 0 -> b; x -> 0 }; main = f1 y y 0;",
        "main",
        True,
    ),
]


@pytest.mark.parametrize(
    "label,src,entry,measure_holds",
    STRESS_PROGRAMS,
    ids=[s[0][:30] for s in STRESS_PROGRAMS],
)
def test_stress_programs_preserved_and_improved(label, src, entry, measure_holds):
    program = parse_program(src)
    residual = supercompile(program, assert_measure=measure_holds)
    call = parse_expression(entry, frozenset(program.defs))
    if label.startswith("diverges:"):
        before, after = eval_program(program, call, 1000), eval_program(residual, call, 1000)
        assert _verdict(before, after) == "both-out-of-fuel"
        return
    before = eval_program(program, call, 1_000_000)
    after = eval_program(residual, call, 1_000_000)
    assert before.kind == after.kind == "value"
    assert alpha_eq(before.value, after.value)
    assert after.calls <= before.calls
