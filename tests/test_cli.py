import io
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deforest.cli import main

from conftest import FIXTURE_NAMES, FIXTURES


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
    assert "main xs ys zs = h1 xs ys zs;" in text


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


def test_build_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.core"
    empty.write_text("")
    code, _, err = run_cli("build", str(empty), capsys=capsys)
    assert code == 2


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
    "manifest",
    [
        "fuel: abc\n",
        "entry: main y\n",
        "golden: missing.core\n",
        "fuel: -5\nentry: main 1\n",
        "fuel: 0\nentry: main 1\n",
    ],
    ids=["bad-fuel", "free-variable-entry", "missing-golden", "negative-fuel", "zero-fuel"],
)
def test_check_bad_manifest_exits_2(tmp_path, capsys, manifest):
    prog = tmp_path / "p.core"
    prog.write_text("main x = x + 1;")
    (tmp_path / "p.manifest").write_text(manifest)
    code, out, err = run_cli("check", str(prog), capsys=capsys)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("fuel", ["0", "-1"])
@pytest.mark.parametrize("command", ["eval", "check"])
def test_fuel_flag_below_one_exits_2(tmp_path, capsys, command, fuel):
    prog = tmp_path / "p.core"
    prog.write_text("main x = x + 1;")
    (tmp_path / "p.manifest").write_text("entry: main 1\n")
    extra = ["-e", "main 1"] if command == "eval" else []
    code, out, err = run_cli(command, str(prog), *extra, "--fuel", fuel, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


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


def test_embed_command(capsys):
    code, out, _ = run_cli("embed", "fac y", "fac (y - 1)", capsys=capsys)
    assert code == 0 and out.strip() == "embedded"
    code, out, _ = run_cli("embed", "fac (y - 1)", "fac y", capsys=capsys)
    assert code == 0 and out.strip() == "not-embedded"


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
