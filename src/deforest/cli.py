"""Command line front end.

Exit codes: 0 ok, 1 check failure, 2 usage/parse error or output that cannot
be written (a standard output whose reader has gone included, which exits
without a message), 3 internal assertion.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path

from .driver import DriverError, program_alpha_eq, supercompile
from .generalize import Generalization, embeds, msg
from .parser import ParseError, parse_expression, parse_program
from .pretty import pretty_expr, pretty_program
from .semantics import EvalOutcome, eval_program
from .syntax import (
    CtorApp,
    Expression,
    Lambda,
    Program,
    SyntaxError_,
    alpha_eq,
    free_vars,
    unfold_lambdas,
    validate_program,
)
from .analysis import strict_vars

DEFAULT_FUEL = 1_000_000


class UsageError(Exception):
    """An error in the command's files or arguments that has no source position."""


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {path}: not UTF-8 text") from None


def _load_program(path: str, validate: bool = True) -> Program:
    """The parsed program; `build` leaves validation to `supercompile`."""
    program = parse_program(_read_text(path))
    if validate:
        validate_program(program)
    return program


def _parse_entry(text: str, program: Program) -> Expression:
    call = parse_expression(text, frozenset(program.defs))
    missing = free_vars(call)
    if missing:
        raise UsageError(f"entry call has free variables {sorted(missing)}")
    return call


def _fuel(value: int, source: str) -> int:
    if value < 1:
        raise UsageError(f"{source} must be at least 1, got {value}")
    return value


def _render_outcome(outcome: EvalOutcome) -> str:
    if outcome.kind == "value":
        return pretty_expr(outcome.value)
    if outcome.kind == "out_of_fuel":
        return "OUT-OF-FUEL"
    return f"STUCK: {outcome.reason}"


def cmd_build(args) -> int:
    program = _load_program(args.file, validate=False)
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    explain = (
        (lambda line: print(line, file=sys.stderr)) if args.explain_strict else None
    )
    residual = supercompile(
        program,
        trace=trace,
        assert_measure=args.assert_measure,
        explain_strict=explain,
    )
    text = pretty_program(residual)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None
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
    for raw in _read_text(path).splitlines():
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
                raise UsageError(f"manifest fuel {value!r} is not an integer") from None
            _fuel(fuel, "manifest fuel")
        else:
            raise UsageError(f"unknown manifest key {key!r}")
    return {"entries": entries, "golden": golden, "fuel": fuel}


PASSING = ("both-value-equal", "both-function", "both-stuck", "both-out-of-fuel")


def _same_value(a: Expression, b: Expression) -> bool:
    """a and b are equal data that hold functions in the same places.  Two
    functions are not compared (alpha equivalence cannot decide extensional
    equality), at any depth.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is Lambda or type(b) is Lambda:
            if type(a) is not type(b):
                return False
        elif type(a) is type(b) is CtorApp and a.ctor == b.ctor and len(a.args) == len(b.args):
            stack.extend(zip(a.args, b.args))
        elif not alpha_eq(a, b):
            return False
    return True


def _verdict(before: EvalOutcome, after: EvalOutcome) -> str:
    """Compare the original's outcome with the residual's: values by
    `_same_value`, and then their calls.
    """
    if before.kind == after.kind == "value":
        if not _same_value(before.value, after.value):
            return "MISMATCH"
        if after.calls > before.calls:
            return "IMPROVEMENT-VIOLATION"
        return "both-function" if type(before.value) is Lambda else "both-value-equal"
    if before.kind == after.kind == "stuck":
        return "both-stuck"
    if before.kind == after.kind == "out_of_fuel":
        return "both-out-of-fuel"
    return "MISMATCH"


def cmd_check(args) -> int:
    program = _load_program(args.file)
    manifest_path = Path(args.manifest) if args.manifest else Path(args.file).with_suffix(".manifest")
    if not manifest_path.exists():
        raise UsageError(f"no manifest at {manifest_path}")
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
        verdict = _verdict(before, after)
        failed |= verdict not in PASSING
        if verdict == "both-stuck":
            verdict += f" ({before.reason} | {after.reason})"
        print(
            f"{entry}: {verdict} calls={before.calls}->{after.calls} "
            f"allocs={before.allocs}->{after.allocs}"
        )
    return 1 if failed else 0


def _parse_two(args) -> tuple:
    # argparse before Python 3.12 gives [] for an argument "--" after "--"
    e1, e2 = (e if isinstance(e, str) else "--" for e in (args.e1, args.e2))
    return parse_expression(e1), parse_expression(e2)


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


# Driving's stack depth follows how deeply the input nests, not how long
# driving runs, but R4 on a long list literal, the parser, the printer and the
# other traversals still recurse once per level.  A command runs in a thread
# whose stack holds the whole recursion limit (deep compares, hashes and
# substitutions reach it within 32 MB), so a too deeply nested input exits 2
# with RecursionError instead of overflowing the C stack.  The caller's limit
# comes back afterwards: kept raised, a deep recursion on the main thread's
# smaller stack would crash the process.
RECURSION_LIMIT = 100_000
STACK_BYTES = 256 * 2**20


def _run(argv) -> int:
    ap = make_arg_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of standard output has gone: what is still buffered goes
        # to the null device, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (ParseError, SyntaxError_, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except DriverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    result: list = []

    def target() -> None:
        try:
            result.append(_run(argv))
        except BaseException as exc:  # re-raised in the calling thread
            result.append(exc)

    limit = sys.getrecursionlimit()
    previous = threading.stack_size(STACK_BYTES)
    try:
        sys.setrecursionlimit(RECURSION_LIMIT)
        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(previous)
        sys.setrecursionlimit(limit)
    if isinstance(result[0], BaseException):
        raise result[0]
    return result[0]


if __name__ == "__main__":
    sys.exit(main())
