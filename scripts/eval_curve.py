"""Interpreter throughput of the eval_lists fixtures as the input grows.

    python3 scripts/eval_curve.py --src src --out BENCH_eval.json --side change
    python3 scripts/eval_curve.py --src src --parent-src PARENT/src --out BENCH_cases.json

For each fixture of the benchmark's `eval_lists` workload it evaluates the
entry call on the original program and on its residual, with lists of
LIST_LENGTHS elements (every list argument has that length) or, for
`flip_tree`, full trees of TREE_DEPTHS levels.  It records the steps the
call takes and the steps per second of the median of REPEATS timed runs.
The inputs are built as terms, not parsed, so that no parser limit bounds
them; their elements come from a fixed seed.  The runs of the sides take
turns (`curve_harness.alternate`), with the collector off inside each one,
and every side and the residual must give the original's value.  The flags
`--src`, `--parent-src`, `--out` and `--side` are those of
`curve_harness.run`.
"""

from __future__ import annotations

import random
import statistics
import sys
from functools import partial

from curve_harness import alternate, run

FIXTURES = ("double_append", "sum_map_square", "vecdot", "rev_accum", "flip_tree")
LIST_ARGS = {"double_append": 3, "sum_map_square": 1, "vecdot": 2, "rev_accum": 1}
LIST_LENGTHS = [2**i for i in range(4, 13)]  # 16 .. 4096
TREE_DEPTHS = range(4, 13)
REPEATS = 5
FUEL = 10**9


def list_term(api, xs):
    e = api.CtorApp("Nil", ())
    for x in reversed(xs):
        e = api.CtorApp("Cons", (api.IntLit(x), e))
    return e


def tree_term(api, rng, depth: int):
    if depth == 0:
        return api.CtorApp("Leaf", (api.IntLit(rng.randrange(10)),))
    return api.CtorApp("Branch", (tree_term(api, rng, depth - 1), tree_term(api, rng, depth - 1)))


def entry_call(api, name: str, size: int):
    """main applied to the inputs of one size, drawn from a fixed seed."""
    rng = random.Random(f"{name}-{size}")
    if name == "flip_tree":
        args = [tree_term(api, rng, size)]
    else:
        args = [list_term(api, [rng.randrange(10) for _ in range(size)])
                for _ in range(LIST_ARGS[name])]
    call = api.Global("main")
    for a in args:
        call = api.App(call, a)
    return call


def flat(v) -> tuple:
    """A data value as its preorder of constructors and integers, read
    without recursion: long lists are too deep for `==` on terms.
    """
    out, stack = [], [v]
    while stack:
        t = stack.pop()
        if hasattr(t, "ctor"):
            out.append(t.ctor)
            stack.extend(reversed(t.args))
        else:
            out.append(t.value)
    return tuple(out)


def measure(runs: dict) -> tuple[dict, set]:
    """Per side, the steps of one evaluation and the steps per second of the
    median run; and the set of the values the sides give.
    """
    times, outs = alternate(runs, REPEATS)
    rows = {}
    for side, out in outs.items():
        if out.kind != "value":
            raise SystemExit(f"eval_curve: {side}: {out.kind} {out.reason or ''}")
        median = statistics.median(times[side])
        rows[side] = {"steps": out.steps, "ms": median * 1e3, "steps_per_s": out.steps / median}
    return rows, {flat(out.value) for out in outs.values()}


def curve(sides: dict, name: str) -> dict[str, list[dict]]:
    programs = {}
    for side, (api, src) in sides.items():
        original = api.parse_program((src / "deforest" / "fixtures" / f"{name}.core").read_text())
        programs[side] = (api, original, api.supercompile(original))
    rows: dict[str, list[dict]] = {side: [] for side in sides}
    for size in TREE_DEPTHS if name == "flip_tree" else LIST_LENGTHS:
        calls = {side: entry_call(api, name, size) for side, (api, _, _) in programs.items()}
        orig, values = measure({side: partial(api.eval_program, original, calls[side], FUEL)
                                for side, (api, original, _) in programs.items()})
        resid, resid_values = measure({side: partial(api.eval_program, residual, calls[side], FUEL)
                                       for side, (api, _, residual) in programs.items()})
        if len(values | resid_values) != 1:
            raise SystemExit(f"eval_curve: {name} at {size}: the values differ")
        for side in sides:
            rows[side].append({"size": size, "orig": orig[side], "resid": resid[side]})
            print(f"{side} {name} {size}: {orig[side]['steps_per_s'] / 1e3:.0f}k / "
                  f"{resid[side]['steps_per_s'] / 1e3:.0f}k steps/s", file=sys.stderr)
    return rows


def curves(sides: dict) -> dict:
    fixtures = {name: curve(sides, name) for name in FIXTURES}
    return {
        side: {
            "repeats": REPEATS,
            "size": "elements per list argument; tree depth for flip_tree",
            "fixtures": {name: fixtures[name][side] for name in FIXTURES},
        }
        for side in sides
    }


def main(argv=None) -> int:
    return run(__doc__, curves, argv)


if __name__ == "__main__":
    sys.exit(main())
