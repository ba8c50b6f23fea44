import argparse
import io
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deforest import App, CtorApp, DriverError, Global, IntLit, Lambda, PrimOp, Var
from deforest import cli
from deforest.cli import _verdict, main, make_arg_parser
from deforest.semantics import EvalOutcome

from conftest import FIXTURE_NAMES, FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def fixture(name):
    return str(FIXTURES / f"{name}.core")


def test_build_writes_residual(tmp_path, capsys):
    out_file = tmp_path / "out.core"
    code, out, err = run_cli(
        "build", fixture("double_append"), "-o", str(out_file), capsys=capsys
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("h3 xs'1 zs = case xs'1 of")
    assert "(x3 : xs'3) -> x3 : main xs'3 ys zs };" in text


def test_build_stdout_deterministic(capsys):
    code1, out1, _ = run_cli("build", fixture("vecdot"), capsys=capsys)
    code2, out2, _ = run_cli("build", fixture("vecdot"), capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_build_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.core"
    bad.write_text("main = case of;")
    code, out, err = run_cli("build", str(bad), capsys=capsys)
    assert code == 2
    assert "error" in err
    # an error with no source position prints none
    missing = tmp_path / "missing.core"
    assert run_cli("build", str(missing), capsys=capsys) == (
        2, "", f"error: cannot read {missing}: No such file or directory\n"
    )


def test_build_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.core"
    empty.write_text("")
    code, _, err = run_cli("build", str(empty), capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["build", "check"])
def test_missing_entry_exits_2(tmp_path, capsys, command):
    prog = tmp_path / "p.core"
    prog.write_text("f x = x;")
    (tmp_path / "p.manifest").write_text("entry: f 1\n")
    code, _, err = run_cli(command, str(prog), capsys=capsys)
    assert code == 2
    assert err.startswith("error: ") and "'main'" in err


def test_build_trace_and_measure_flags(capsys):
    code, out, err = run_cli(
        "build", fixture("append_self"), "--trace", "--assert-measure", capsys=capsys
    )
    assert code == 0
    assert "Dapp4a" in err  # the upwards generalization fires on this input


def test_build_explain_strict(capsys):
    code, out, err = run_cli(
        "build", fixture("rev_accum"), "--explain-strict", capsys=capsys
    )
    assert code == 0
    assert "strict=" in err


def test_eval_factorial(capsys):
    code, out, _ = run_cli("eval", fixture("factorial"), "-e", "main", capsys=capsys)
    assert code == 0
    assert out.strip() == "6"


def test_eval_prints_integers_past_the_digit_limit(tmp_path, capsys):
    # A * A has 4,400 digits, past Python's default int-to-str limit of
    # 4,300; the literal A itself is within the parser's limit
    a = int("7" * 2200)
    src = tmp_path / "big.core"
    src.write_text(f"main = {a} * {a};\nneg = 0 - {a} * {a};\n")
    code, out, _ = run_cli("eval", str(src), "-e", "main", capsys=capsys)
    code_neg, out_neg, _ = run_cli("eval", str(src), "-e", "neg", capsys=capsys)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(a * a)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out.strip()) == (0, expected)
    assert (code_neg, out_neg.strip()) == (0, f"(-{expected})")


def test_eval_double_append(capsys):
    code, out, _ = run_cli(
        "eval", fixture("double_append"), "-e", "main [1,2] [3] [4]", capsys=capsys
    )
    assert code == 0
    assert out.strip() == "[1, 2, 3, 4]"


def test_eval_stats_block(capsys):
    code, out, _ = run_cli(
        "eval", fixture("factorial"), "-e", "main", "--stats", capsys=capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "6"
    assert lines[1] == "calls=10 allocs=0 steps=20 outcome=value"


def test_eval_out_of_fuel(capsys):
    code, out, _ = run_cli(
        "eval", fixture("loop"), "-e", "main", "--fuel", "1000", capsys=capsys
    )
    assert code == 0
    assert out.strip() == "OUT-OF-FUEL"


def test_eval_open_entry_rejected(capsys):
    code, _, err = run_cli(
        "eval", fixture("factorial"), "-e", "main unknownvar", capsys=capsys
    )
    assert code == 2
    assert err == "error: entry call has free variables ['unknownvar']\n"


def test_check_fixture_passes(capsys):
    code, out, _ = run_cli("check", fixture("sum_map_square"), capsys=capsys)
    assert code == 0
    assert "golden: match" in out
    assert "both-value-equal" in out


def test_check_divergent_fixture_passes(capsys):
    code, out, _ = run_cli("check", fixture("loop"), capsys=capsys)
    assert code == 0
    assert "both-out-of-fuel" in out


def test_check_detects_golden_mismatch(tmp_path, capsys):
    prog = tmp_path / "p.core"
    prog.write_text("main x = x + 1;")
    golden = tmp_path / "g.core"
    golden.write_text("main x = x + 2;")
    manifest = tmp_path / "p.manifest"
    manifest.write_text("golden: g.core\n")
    code, out, _ = run_cli("check", str(prog), capsys=capsys)
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("fuel: abc\n", "manifest fuel 'abc' is not an integer"),
        ("entry: main y\n", "entry call has free variables ['y']"),
        ("golden: missing.core\n", "cannot read {d}/missing.core: No such file or directory"),
        ("fuel: -5\nentry: main 1\n", "manifest fuel must be at least 1, got -5"),
        ("fuel: 0\nentry: main 1\n", "manifest fuel must be at least 1, got 0"),
        ("entries: main 1\n", "unknown manifest key 'entries'"),
        (None, "no manifest at {d}/p.manifest"),
        ("golden: latin1.core\n", "cannot read {d}/latin1.core: not UTF-8 text"),
        (b"entry: main \xff\n", "cannot read {d}/p.manifest: not UTF-8 text"),
        (IsADirectoryError, "cannot read {d}/p.manifest: Is a directory"),
    ],
    ids=["bad-fuel", "free-variable-entry", "missing-golden", "negative-fuel", "zero-fuel",
         "unknown-key", "no-manifest", "golden-not-utf8", "manifest-not-utf8",
         "manifest-is-a-directory"],
)
def test_check_bad_manifest_exits_2(tmp_path, capsys, manifest, message):
    # none of these errors has a source position, and none prints one
    prog = tmp_path / "p.core"
    prog.write_text("main x = x + 1;")
    (tmp_path / "latin1.core").write_bytes(b"main = \xff;")
    path = tmp_path / "p.manifest"
    if manifest is IsADirectoryError:
        path.mkdir()
    elif isinstance(manifest, bytes):
        path.write_bytes(manifest)
    elif manifest is not None:
        path.write_text(manifest)
    code, out, err = run_cli("check", str(prog), capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(d=tmp_path)}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (["build", "{d}/latin1.core"], "cannot read {d}/latin1.core: not UTF-8 text"),
        (["eval", "{d}/latin1.core", "-e", "main 1"], "cannot read {d}/latin1.core: not UTF-8 text"),
        (["strict", "{d}/latin1.core"], "cannot read {d}/latin1.core: not UTF-8 text"),
        (
            ["build", "{d}/p.core", "-o", "{d}/missing/out.core"],
            "cannot write {d}/missing/out.core: No such file or directory",
        ),
    ],
    ids=["build-not-utf8", "eval-not-utf8", "strict-not-utf8", "build-output-dir-missing"],
)
def test_unreadable_or_unwritable_file_exits_2(tmp_path, capsys, args, message):
    (tmp_path / "latin1.core").write_bytes(b"main x = \xff x;")
    (tmp_path / "p.core").write_text("main x = x + 1;")
    code, out, err = run_cli(*(a.format(d=tmp_path) for a in args), capsys=capsys)
    assert (code, out, err) == (2, "", f"error: {message.format(d=tmp_path)}\n")


@pytest.mark.parametrize(
    "program, message",
    [
        ("main x = case x of { Cons a a -> 1 };", "main: repeated pattern variable in Cons"),
        ("main x = case x of { y -> 1; 0 -> 2 };", "main: default alternative must come last"),
        ("main x = case x of { 0 -> 1; 0 -> 2 };", "main: duplicate case alternative"),
    ],
    ids=["repeated-binder", "default-not-last", "duplicate-alternative"],
)
def test_invalid_program_exits_2(tmp_path, capsys, program, message):
    prog = tmp_path / "p.core"
    prog.write_text(program)
    assert run_cli("build", str(prog), capsys=capsys) == (2, "", f"error: {message}\n")


def _k(*args):
    return CtorApp("K", args)


def _value(e, calls=3):
    return EvalOutcome("value", e, None, calls, 0, calls, 0)


OUT_OF_FUEL = EvalOutcome("out_of_fuel", None, None, 5, 0, 5, 0)
STUCK = EvalOutcome("stuck", None, "free variable y", 1, 0, 1, 0)


@pytest.mark.parametrize(
    "before, after, verdict",
    [
        (_value(IntLit(1)), _value(IntLit(2)), "MISMATCH"),
        (_value(CtorApp("Nil", ())), _value(Lambda("x", Var("x"))), "MISMATCH"),
        # the residual terminates where the original diverges
        (OUT_OF_FUEL, _value(IntLit(1)), "MISMATCH"),
        (_value(IntLit(1)), OUT_OF_FUEL, "MISMATCH"),
        (STUCK, _value(IntLit(1)), "MISMATCH"),
        (_value(IntLit(1)), _value(IntLit(1), calls=4), "IMPROVEMENT-VIOLATION"),
        (_value(Lambda("x", Var("x"))), _value(Lambda("y", IntLit(0)), calls=4),
         "IMPROVEMENT-VIOLATION"),
        (_value(IntLit(1)), _value(IntLit(1), calls=2), "both-value-equal"),
        (OUT_OF_FUEL, OUT_OF_FUEL, "both-out-of-fuel"),
        # a function inside a value matches any function, and only a function
        (_value(_k(Lambda("y", App(Global("inc"), Var("y"))), IntLit(3))),
         _value(_k(Lambda("y", PrimOp("+", Var("y"), IntLit(1))), IntLit(3))), "both-value-equal"),
        (_value(_k(Lambda("y", Var("y")), IntLit(3))),
         _value(_k(Lambda("y", Var("y")), IntLit(4))), "MISMATCH"),
        (_value(_k(Lambda("y", Var("y")), IntLit(3))),
         _value(_k(CtorApp("Nil", ()), IntLit(3))), "MISMATCH"),
        (_value(_k(CtorApp("Nil", ()), IntLit(3))),
         _value(_k(Lambda("y", Var("y")), IntLit(3))), "MISMATCH"),
    ],
)
def test_verdict(before, after, verdict):
    assert _verdict(before, after) == verdict


APPEND_SELF = (
    "append xs ys = case xs of { [] -> ys; (x:xs') -> x : append xs' ys };\n"
    "main xs = append xs xs;\n"
)


@pytest.mark.parametrize(
    "entry, verdict",
    [
        # both get stuck on the same case: a pass, with both reasons shown
        ("main 1", "main 1: both-stuck (no alternative matches 1 | "
                   "no alternative matches 1) calls="),
        # both values are lambdas: not compared, but calls still are
        ("main", "main: both-function calls=1->1 "),
    ],
)
def test_check_agreeing_outcomes_pass(tmp_path, capsys, entry, verdict):
    prog = tmp_path / "p.core"
    prog.write_text(APPEND_SELF)
    (tmp_path / "p.manifest").write_text(f"entry: {entry}\nentry: main [1]\n")
    code, out, _ = run_cli("check", str(prog), capsys=capsys)
    assert code == 0
    assert out.splitlines()[0].startswith(verdict)
    assert "main [1]: both-value-equal" in out


LONG_LIST = "[" + ",".join(str(i % 7) for i in range(30_000)) + "]"


@pytest.mark.parametrize(
    "program, entry",
    [
        # a 30,000-element list literal, evaluated and printed back
        (APPEND_SELF, f"main {LONG_LIST}"),
        # the same literal, supercompiled
        (f"main = {LONG_LIST};\n", None),
        # 30,000 nested parentheses
        ("main = " + "(" * 30_000 + "1" + ")" * 30_000 + ";\n", None),
    ],
    ids=["eval-long-list", "build-long-list", "build-deep-parens"],
)
def test_deep_input_exits_cleanly(tmp_path, program, entry):
    prog = tmp_path / "p.core"
    prog.write_text(program)
    args = ["eval", str(prog), "-e", entry] if entry else ["build", str(prog)]
    out = subprocess.run(
        [sys.executable, "-m", "deforest.cli", *args],
        capture_output=True,
        text=True,
        cwd=FIXTURES.parents[1],
    )
    assert out.returncode in (0, 2), out.stderr[-2000:]
    assert "Traceback" not in out.stderr
    if out.returncode == 2:
        assert out.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [
        # a 20,000-element list: the print itself meets the closed pipe
        ["eval", "{prog}", "-e", "main 20000"],
        # a few lines that stay buffered until the flush at the end
        ["check", fixture("factorial")],
    ],
    ids=["eval-long-output", "check-short-output"],
)
def test_closed_stdout_exits_2_quietly(tmp_path, args):
    prog = tmp_path / "r.core"
    prog.write_text("build n = case n of { 0 -> []; _ -> n : build (n - 1) };\nmain n = build n;\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "deforest.cli", *[a.format(prog=prog) for a in args]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=FIXTURES.parents[1],
    )
    proc.stdout.close()  # the reader goes before the command writes
    stderr = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert stderr == ""


def test_command_errors_exit_cleanly(monkeypatch, capsys):
    # a recursion too deep for the stack exits 2, a driver fault exits 3;
    # neither prints a traceback
    for exc, exit_code, prefix in [
        (RecursionError("maximum recursion depth exceeded"), 2, "error: input is nested too deeply"),
        (DriverError("measure did not decrease"), 3, "internal error: measure did not decrease"),
    ]:

        def command(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_build", command)
        code, out, err = run_cli("build", fixture("factorial"), capsys=capsys)
        assert (code, out) == (exit_code, "")
        assert err.startswith(prefix)
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "program, entry",
    [
        # a 5,001-digit literal, past Python's default int conversion limit
        ("main = 1" + "0" * 5_000 + ";\n", None),
        # a negative one in an entry call
        (APPEND_SELF, "main [(-" + "9" * 5_000 + ")]"),
    ],
    ids=["build", "eval"],
)
def test_long_integer_literal_exits_2(tmp_path, capsys, program, entry):
    prog = tmp_path / "p.core"
    prog.write_text(program)
    args = ["eval", str(prog), "-e", entry] if entry else ["build", str(prog)]
    code, out, err = run_cli(*args, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "integer literal too long" in err


@pytest.mark.parametrize("fuel", ["0", "-1"])
@pytest.mark.parametrize("command", ["eval", "check"])
def test_fuel_flag_below_one_exits_2(tmp_path, capsys, command, fuel):
    prog = tmp_path / "p.core"
    prog.write_text("main x = x + 1;")
    (tmp_path / "p.manifest").write_text("entry: main 1\n")
    extra = ["-e", "main 1"] if command == "eval" else []
    code, out, err = run_cli(command, str(prog), *extra, "--fuel", fuel, capsys=capsys)
    assert (code, out, err) == (2, "", f"error: --fuel must be at least 1, got {fuel}\n")


@pytest.mark.parametrize(
    "scrutinee, reason",
    [
        ("3", "no alternative matches 3"),
        ("Just 1", "no alternative matches constructor Just"),
    ],
)
def test_eval_reports_unmatched_case(tmp_path, capsys, scrutinee, reason):
    prog = tmp_path / "p.core"
    prog.write_text(f"main = case {scrutinee} of {{ 0 -> 1; Nothing -> 2 }};")
    code, out, _ = run_cli("eval", str(prog), "-e", "main", capsys=capsys)
    assert code == 1
    assert out.strip() == f"STUCK: {reason}"


def test_letrec_is_lexically_scoped_and_fix_is_a_name(tmp_path, capsys):
    # f's g is the top-level g, not the letrec g that follows it
    prog = tmp_path / "p.core"
    prog.write_text("g x = x + 100; main = letrec f = \\x -> g x in letrec g = \\y -> f y in g 1;")
    assert run_cli("eval", str(prog), "-e", "main", capsys=capsys) == (0, "101\n", "")
    assert run_cli("build", str(prog), capsys=capsys) == (0, "main = 101;\n", "")
    prog.write_text("fix f = f; main = fix 1;")
    assert run_cli("eval", str(prog), "-e", "main", capsys=capsys) == (0, "1\n", "")


@pytest.mark.parametrize(
    "program, command",
    [
        ("main = letrec q = 3 in q;", ["build"]),
        ("main y = letrec q = \\x -> y in q 1;", ["build"]),
        ("main = 1;", ["eval", "-e", "letrec q = \\x -> x in q 3"]),
    ],
    ids=["rhs-not-a-lambda", "rhs-captures-a-variable", "letrec-in-entry-call"],
)
def test_letrec_errors_exit_2(tmp_path, capsys, program, command):
    prog = tmp_path / "p.core"
    prog.write_text(program)
    code, out, err = run_cli(command[0], str(prog), *command[1:], capsys=capsys)
    assert (code, out) == (2, "")
    assert re.match(r"error: \d+:\d+: ", err), err


def test_embed_command(capsys):
    code, out, _ = run_cli("embed", "fac y", "fac (y - 1)", capsys=capsys)
    assert code == 0 and out.strip() == "embedded"
    code, out, _ = run_cli("embed", "fac (y - 1)", "fac y", capsys=capsys)
    assert code == 0 and out.strip() == "not-embedded"
    # an argument "--" after "--" is the comment "--", an empty expression
    code, out, err = run_cli("embed", "--", "main", "--", capsys=capsys)
    assert code == 2 and err == "error: 1:1: expected expression, found 'end of input'\n"


def test_main_restores_the_recursion_limit(capsys):
    limit = sys.getrecursionlimit()
    code, out, _ = run_cli("embed", "x", "x", capsys=capsys)
    assert code == 0 and out.strip() == "embedded"
    assert sys.getrecursionlimit() == limit


def test_msg_command(capsys):
    code, out, _ = run_cli("msg", "fac y", "fac (y - 1)", capsys=capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("common: fac ")


def test_strict_command(capsys):
    code, out, _ = run_cli("strict", fixture("rev_accum"), capsys=capsys)
    assert code == 0
    assert "rev: {xs, acc}" in out


def test_every_fixture_checks_within_ten_seconds(capsys):
    import time

    from conftest import FIXTURE_NAMES

    for name in FIXTURE_NAMES:
        t0 = time.perf_counter()
        code, out, _ = run_cli("check", fixture(name), capsys=capsys)
        took = time.perf_counter() - t0
        assert code == 0, (name, out)
        assert took < 10.0, (name, took)


def test_readme_synopsis_matches_the_parser():
    # each `deforest <cmd> ...` line of the README's synopsis names exactly
    # the options that the command's parser defines, by short or long flag
    synopsis = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        words = line.split("#")[0].split()
        if len(words) > 1 and words[0] == "deforest":
            flags = [w.strip("[]") for w in words[2:]]
            synopsis[words[1]] = [w for w in flags if w.startswith("-")]
    commands = next(
        a for a in make_arg_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(synopsis) == set(commands)
    for name, parser in commands.items():
        dest = {s: a.dest for a in parser._actions if a.dest != "help" for s in a.option_strings}
        assert set(synopsis[name]) <= set(dest), name
        assert {dest[flag] for flag in synopsis[name]} == set(dest.values()), name


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "deforest.cli", "eval", fixture("factorial"), "-e", "main"],
        capture_output=True,
        text=True,
        cwd=FIXTURES.parents[1],  # src/, so that -m finds the package uninstalled
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "6"


# ---------------------------------------------------------------------------
# exit-code contract on random input: 0, 1 or 2, and never an exception


_WORDS = [
    "main", "f", "x", "xs", "=", ";", "case", "of", "{", "}", "->", "_", "0",
    "1", "(-1)", "[]", "[1,2]", "(x:xs)", ":", "Nil", "Cons", "Just", "(",
    ")", "+", "-", "*", "\\", "let", "in", "letrec", "\n",
]
_FIXTURE_TEXTS = [(FIXTURES / f"{n}.core").read_text() for n in FIXTURE_NAMES]


@st.composite
def _mutated_fixture(draw):
    words = draw(st.sampled_from(_FIXTURE_TEXTS)).split(" ")
    i = draw(st.integers(0, len(words)))
    j = draw(st.integers(i, min(len(words), i + 3)))
    inserted = draw(st.lists(st.sampled_from(_WORDS), max_size=2))
    return " ".join(words[:i] + inserted + words[j:])


_SOUP = st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join)
_PROGRAMS = st.one_of(
    st.sampled_from(_FIXTURE_TEXTS), _mutated_fixture(), _SOUP, st.text(max_size=30)
)
_EXPRS = st.one_of(
    st.sampled_from(["main", "main 1", "main [1,2] [3]", "f (x - 1)", "Just x"]),
    _SOUP,
    st.text(max_size=20),
)
_ENTRIES = st.sampled_from(
    ["main", "main 1", "main [1,2]", "main [1,2] [3]", "main 2 [3]"]
)
# mostly well-formed lines, then at most one that may be malformed
_MANIFESTS = st.tuples(
    st.lists(
        st.one_of(st.builds("entry: {}".format, _ENTRIES), st.just("golden: g.core")),
        max_size=3,
    ),
    st.lists(
        st.one_of(
            st.builds("entry: {}".format, _EXPRS),
            st.builds(
                "fuel: {}".format, st.one_of(st.integers(-2, 300), st.text(max_size=5))
            ),
            st.sampled_from(["golden: missing.core", "# note", "", "bogus: 1"]),
            st.text(max_size=20),
        ),
        max_size=1,
    ),
).map(lambda parts: parts[0] + parts[1])


@given(
    command=st.sampled_from(["build", "check", "eval", "strict", "embed", "msg"]),
    program=_PROGRAMS,
    golden=_PROGRAMS,
    fuel=st.integers(-2, 300),
    manifest=_MANIFESTS,
    flag_fuel=st.booleans(),
    entry=st.one_of(_ENTRIES, _EXPRS),
    e1=_EXPRS,
    e2=_EXPRS,
)
@settings(max_examples=300, deadline=None)
def test_cli_exit_codes_on_random_input(
    command, program, golden, fuel, manifest, flag_fuel, entry, e1, e2
):
    with tempfile.TemporaryDirectory() as d:
        prog = Path(d) / "p.core"
        prog.write_text(program)
        (Path(d) / "g.core").write_text(golden)
        # a leading fuel line keeps every evaluation bounded
        (Path(d) / "p.manifest").write_text("\n".join([f"fuel: {fuel}"] + manifest))
        argv = {
            "build": ["build", str(prog)],
            "check": ["check", str(prog)]
            + (["--fuel", str(fuel)] if flag_fuel else []),
            "eval": ["eval", str(prog), f"--expr={entry}", "--fuel", str(fuel)],
            "strict": ["strict", str(prog)],
            "embed": ["embed", "--", e1, e2],
            "msg": ["msg", "--", e1, e2],
        }[command]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
