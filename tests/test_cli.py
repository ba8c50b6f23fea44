import subprocess
import sys

import pytest

from deforest.cli import main

from conftest import FIXTURES


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
    ["fuel: abc\n", "entry: main y\n", "golden: missing.core\n"],
    ids=["bad-fuel", "free-variable-entry", "missing-golden"],
)
def test_check_bad_manifest_exits_2(tmp_path, capsys, manifest):
    prog = tmp_path / "p.core"
    prog.write_text("main x = x + 1;")
    (tmp_path / "p.manifest").write_text(manifest)
    code, out, err = run_cli("check", str(prog), capsys=capsys)
    assert code == 2
    assert err.startswith("error: ")


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
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "6"
