"""Interpreter throughput of the eval_lists fixtures as the input grows.

    python3 scripts/eval_curve.py --src src --out BENCH_eval.json --side change

For each fixture of the benchmark's `eval_lists` workload it evaluates the
entry call on the original program and on its residual, with lists of
LIST_LENGTHS elements (every list argument has that length) or, for
`flip_tree`, full trees of TREE_DEPTHS levels.  It records the steps the
call takes and the steps per second of the median of REPEATS timed runs.
The inputs are built as terms, not parsed, so that no parser limit bounds
them; their elements come from a fixed seed.  The collector is off inside
each timed run.  The flags `--src`, `--out` and `--side` are those of
`curve_harness.run`.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from pathlib import Path

from curve_harness import run

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


def flat(api, v) -> list:
    """A data value as its preorder of constructors and integers, read
    without recursion: long lists are too deep for `==` on terms.
    """
    out, stack = [], [v]
    while stack:
        t = stack.pop()
        if isinstance(t, api.CtorApp):
            out.append(t.ctor)
            stack.extend(reversed(t.args))
        else:
            out.append(t.value)
    return out


def measure(api, program, call) -> tuple[dict, list]:
    """Steps of one evaluation and the steps per second of the median run."""
    times = []
    for _ in range(REPEATS):
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        out = api.eval_program(program, call, FUEL)
        times.append(time.perf_counter() - t0)
        gc.enable()
    if out.kind != "value":
        raise SystemExit(f"eval_curve: {out.kind} {out.reason or ''}")
    median = statistics.median(times)
    return {"steps": out.steps, "ms": median * 1e3, "steps_per_s": out.steps / median}, flat(api, out.value)


def curve(api, fixtures: Path, name: str) -> list[dict]:
    original = api.parse_program((fixtures / f"{name}.core").read_text())
    residual = api.supercompile(original)
    rows = []
    for size in TREE_DEPTHS if name == "flip_tree" else LIST_LENGTHS:
        call = entry_call(api, name, size)
        orig, value = measure(api, original, call)
        resid, resid_value = measure(api, residual, call)
        if resid_value != value:
            raise SystemExit(f"eval_curve: {name} at {size}: residual gives another value")
        rows.append({"size": size, "orig": orig, "resid": resid})
        print(f"{name} {size}: {orig['steps_per_s'] / 1e3:.0f}k / "
              f"{resid['steps_per_s'] / 1e3:.0f}k steps/s", file=sys.stderr)
    return rows


def curves(api, src: Path) -> dict:
    return {
        "repeats": REPEATS,
        "size": "elements per list argument; tree depth for flip_tree",
        "fixtures": {name: curve(api, src / "deforest" / "fixtures", name) for name in FIXTURES},
    }


def main(argv=None) -> int:
    return run(__doc__, curves, argv)


if __name__ == "__main__":
    sys.exit(main())
