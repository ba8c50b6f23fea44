"""Interpreter counters of residual programs against their originals, over a
fixed draw of generated programs.

    python3 scripts/resid_counters.py --src src --out BENCH_resid.json --side change
    python3 scripts/resid_counters.py --src src --parent-src PARENT/src --out BENCH_resid.json

The draw is acceptance criterion 3's 500 generated programs (seed 20240809)
and `generate_programs(200, s)` for s = 0..29 from this checkout's
`tests/conftest.py`: 6,500 programs.  Each program gets two entry calls from
`entry_calls_for`, with one `Random(12345)` per draw, and each call runs at
FUEL on the original and on the residual.  The programs and the calls are
printed once, by the `--src` package, and each side parses the texts.

For each side it records: the outcome kinds of every call, as original ->
residual; the steps, calls, allocs and unfolds of the original and of the
residual, summed over the calls where both give a value; how many of those
values differ (`cli._same_value`) and how many calls the residual makes more
calls on than the original; the lets and nodes of all residuals; and on
criterion 3's 500, how many residuals a second `supercompile` leaves
alpha-equal.  With `--parent-src`, the `--src` side also lists every value
call whose residual takes more steps, calls, allocs or unfolds than the
parent's residual.  The counts are exact, so one run per side is enough; the
flags are those of `curve_harness.run`.
"""

from __future__ import annotations

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

from curve_harness import run

ROOT = Path(__file__).resolve().parents[1]
FUEL = 4000
CRITERION_3 = 20240809
COUNTERS = ("steps", "calls", "allocs", "unfolds")


def draw(conftest, api) -> list[tuple[str, str, list[str]]]:
    """(label, program text, entry call texts) of every program."""
    draws = [("criterion 3", conftest.generate_programs(500, seed=CRITERION_3))]
    draws += [(f"generated {s}", conftest.generate_programs(200, s)) for s in range(30)]
    out = []
    for name, programs in draws:
        rng = random.Random(12345)
        for i, p in enumerate(programs):
            calls = conftest.entry_calls_for(p, rng, 2)
            out.append((f"{name}/{i}", api.pretty_program(p), [api.pretty_expr(c) for c in calls]))
    return out


def size(api, program) -> tuple[int, int]:
    """The nodes and the lets of program's definitions."""
    nodes = lets = 0
    stack = list(program.defs.values())
    while stack:
        t = stack.pop()
        nodes += 1
        lets += type(t) is api.Let
        stack.extend(api.syntax.children(t))
    return nodes, lets


def measure(api, items) -> tuple[dict, dict]:
    """A side's record, and the counters of each value call by (label, call index)."""
    same_value = importlib.import_module(api.__name__ + ".cli")._same_value
    totals = {"original": Counter(), "residual": Counter()}
    outcomes: Counter = Counter()
    value_differs = above = nodes = lets = fixpoint = 0
    per_call = {}
    for label, text, entries in items:
        program = api.parse_program(text)
        residual = api.supercompile(program)
        n, k = size(api, residual)
        nodes, lets = nodes + n, lets + k
        if label.startswith("criterion 3/"):
            fixpoint += api.program_alpha_eq(residual, api.supercompile(residual))
        for j, entry in enumerate(entries):
            call = api.parse_expression(entry, frozenset(program.defs))
            before = api.eval_program(program, call, FUEL)
            after = api.eval_program(residual, call, FUEL)
            outcomes[f"{before.kind} -> {after.kind}"] += 1
            if before.kind == after.kind == "value":
                value_differs += not same_value(before.value, after.value)
                above += after.calls > before.calls
                for c in COUNTERS:
                    totals["original"][c] += getattr(before, c)
                    totals["residual"][c] += getattr(after, c)
                per_call[label, j] = {"entry": entry} | {
                    side: {c: getattr(o, c) for c in COUNTERS}
                    for side, o in (("original", before), ("residual", after))
                }
    record = {
        "fuel": FUEL,
        "programs": len(items),
        "outcomes": dict(sorted(outcomes.items())),
        "value_calls": len(per_call),
        "value_differs": value_differs,
        "original": dict(totals["original"]),
        "residual": dict(totals["residual"]),
        "calls_above_original": above,
        "residual_lets": lets,
        "residual_nodes": nodes,
        "criterion_3_second_pass_alpha_equal": fixpoint,
    }
    return record, per_call


def worse_than(per_call: dict, parent: dict) -> list[dict]:
    """The value calls whose residual counters exceed the parent residual's
    on some counter.
    """
    out = []
    for key, counts in per_call.items():
        theirs = parent.get(key)
        if theirs and any(counts["residual"][c] > theirs["residual"][c] for c in COUNTERS):
            out.append({"program": key[0], "entry": counts["entry"], "original": counts["original"],
                        "parent": theirs["residual"], "residual": counts["residual"]})
    return out


def curves(sides: dict) -> dict:
    sys.path.insert(1, str(ROOT / "tests"))
    import conftest  # builds its programs with the --src package

    import deforest

    items = draw(conftest, deforest)
    out, calls = {}, {}
    for side, (api, _) in sides.items():
        out[side], calls[side] = measure(api, items)
        print(f"{side}: {out[side]}", file=sys.stderr)
    if "parent" in sides:
        for side in sides:
            if side != "parent":
                out[side]["worse_than_parent"] = worse_than(calls[side], calls["parent"])
    return out


def main(argv=None) -> int:
    return run(__doc__, curves, argv)


if __name__ == "__main__":
    sys.exit(main())
