"""Command line front end.

Exit codes: 0 ok, 1 check failure, 2 usage/parse error, 3 internal assertion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .driver import DriverError, program_alpha_eq, supercompile
from .generalize import Generalization, embeds, msg
from .parser import ParseError, parse_expression, parse_program
from .pretty import pretty_expr, pretty_program
from .semantics import EvalOutcome, eval_program
from .syntax import (
    Expression,
    Program,
    SyntaxError_,
    alpha_eq,
    free_vars,
    unfold_lambdas,
    validate_program,
)
from .analysis import strict_vars

DEFAULT_FUEL = 1_000_000


def _load_program(path: str) -> Program:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 0, 0)
    program = parse_program(text)
    validate_program(program)
    return program


def _parse_entry(text: str, program: Program) -> Expression:
    call = parse_expression(text, frozenset(program.defs))
    missing = free_vars(call)
    if missing:
        raise ParseError(f"entry call has free variables {sorted(missing)}", 0, 0)
    return call


def _fuel(value: int, source: str) -> int:
    if value < 1:
        raise ParseError(f"{source} must be at least 1, got {value}", 0, 0)
    return value


def _render_outcome(outcome: EvalOutcome) -> str:
    if outcome.kind == "value":
        return pretty_expr(outcome.value)
    if outcome.kind == "out_of_fuel":
        return "OUT-OF-FUEL"
    return f"STUCK: {outcome.reason}"


def cmd_build(args) -> int:
    program = _load_program(args.file)
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    explain = (
        (lambda line: print(line, file=sys.stderr)) if args.explain_strict else None
    )
    residual = supercompile(
        program,
        lift=not args.no_lift,
        trace=trace,
        assert_measure=args.assert_measure,
        explain_strict=explain,
    )
    text = pretty_program(residual)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_eval(args) -> int:
    program = _load_program(args.file)
    call = _parse_entry(args.expr, program)
    outcome = eval_program(program, call, _fuel(args.fuel, "--fuel"))
    print(_render_outcome(outcome))
    if args.stats:
        print(outcome.stats_block())
    return 0 if outcome.kind != "stuck" else 1


def _read_manifest(path: Path) -> dict:
    entries = []
    golden = None
    fuel = None
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "entry":
            entries.append(value)
        elif key == "golden":
            golden = value
        elif key == "fuel":
            try:
                fuel = int(value)
            except ValueError:
                raise ParseError(f"manifest fuel {value!r} is not an integer", 0, 0) from None
            _fuel(fuel, "manifest fuel")
        else:
            raise ParseError(f"unknown manifest key {key!r}", 0, 0)
    return {"entries": entries, "golden": golden, "fuel": fuel}


def cmd_check(args) -> int:
    program = _load_program(args.file)
    manifest_path = Path(args.manifest) if args.manifest else Path(args.file).with_suffix(".manifest")
    if not manifest_path.exists():
        raise ParseError(f"no manifest at {manifest_path}", 0, 0)
    manifest = _read_manifest(manifest_path)
    fuel = _fuel(args.fuel, "--fuel") if args.fuel is not None else manifest["fuel"]
    if fuel is None:
        fuel = DEFAULT_FUEL
    calls = [_parse_entry(entry, program) for entry in manifest["entries"]]

    residual = supercompile(program)
    failed = False

    if manifest["golden"]:
        golden_path = Path(manifest["golden"])
        if not golden_path.is_absolute():
            golden_path = manifest_path.parent / golden_path
        golden = _load_program(str(golden_path))
        ok = program_alpha_eq(residual, golden)
        print(f"golden: {'match' if ok else 'MISMATCH'}")
        failed |= not ok

    for entry, call in zip(manifest["entries"], calls):
        before = eval_program(program, call, fuel)
        after = eval_program(residual, call, fuel)
        if before.kind == "value" and after.kind == "value":
            if not alpha_eq(before.value, after.value):
                verdict = "MISMATCH"
            elif after.calls > before.calls:
                verdict = "IMPROVEMENT-VIOLATION"
            else:
                verdict = "both-value-equal"
        elif before.kind == "out_of_fuel" and after.kind == "out_of_fuel":
            verdict = "both-out-of-fuel"
        else:
            verdict = "MISMATCH"
        failed |= verdict not in ("both-value-equal", "both-out-of-fuel")
        print(
            f"{entry}: {verdict} calls={before.calls}->{after.calls} "
            f"allocs={before.allocs}->{after.allocs}"
        )
    return 1 if failed else 0


def _parse_two(args) -> tuple:
    e1 = parse_expression(args.e1)
    e2 = parse_expression(args.e2)
    return e1, e2


def cmd_embed(args) -> int:
    e1, e2 = _parse_two(args)
    print("embedded" if embeds(e1, e2) else "not-embedded")
    return 0


def cmd_msg(args) -> int:
    e1, e2 = _parse_two(args)
    g: Generalization = msg(e1, e2)
    print(f"common: {pretty_expr(g.common)}")
    for h in g.theta1:
        print(f"{h} <- {pretty_expr(g.theta1[h])} | {pretty_expr(g.theta2[h])}")
    return 0


def cmd_strict(args) -> int:
    program = _load_program(args.file)
    for name, body in program.defs.items():
        params, inner = unfold_lambdas(body)
        strict = strict_vars(inner)
        shown = ", ".join(p for p in params if p in strict)
        print(f"{name}: {{{shown}}}")
    return 0


def make_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="deforest")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="supercompile a program")
    b.add_argument("file")
    b.add_argument("-o", "--output")
    b.add_argument("--no-lift", action="store_true")
    b.add_argument("--trace", action="store_true")
    b.add_argument("--assert-measure", action="store_true")
    b.add_argument("--explain-strict", action="store_true")
    b.set_defaults(fn=cmd_build)

    e = sub.add_parser("eval", help="evaluate an entry call")
    e.add_argument("file")
    e.add_argument("-e", "--expr", required=True)
    e.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    e.add_argument("--stats", action="store_true")
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("check", help="differentially check original vs residual")
    c.add_argument("file")
    c.add_argument("--fuel", type=int, default=None)
    c.add_argument("--manifest")
    c.set_defaults(fn=cmd_check)

    em = sub.add_parser("embed", help="test the homeomorphic embedding")
    em.add_argument("e1")
    em.add_argument("e2")
    em.set_defaults(fn=cmd_embed)

    mg = sub.add_parser("msg", help="most specific generalization of two terms")
    mg.add_argument("e1")
    mg.add_argument("e2")
    mg.set_defaults(fn=cmd_msg)

    st = sub.add_parser("strict", help="print strict parameters per definition")
    st.add_argument("file")
    st.set_defaults(fn=cmd_strict)
    return ap


def main(argv=None) -> int:
    sys.setrecursionlimit(100_000)
    ap = make_arg_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SyntaxError_) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DriverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
