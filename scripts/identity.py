"""Print what driving makes of a fixed program set, to compare two checkouts.

    python3 scripts/identity.py --src ../parent/src > parent.txt
    python3 scripts/identity.py --src src > change.txt
    diff parent.txt change.txt

It imports the deforest package from `--src` (the `src/` directory of any
checkout), as the curve scripts do.  The programs come from this script's
own checkout, so both runs drive the same set: the shipped fixtures,
`generate_programs(200, s)` for s = 0..29, acceptance criterion 3's 500
generated programs, append chains k = 2..12, alternating map chains
k = 4..12, `tests/test_driver.py`'s STRESS_PROGRAMS and the hand-written
let and lambda programs below.  For each program it prints the residual
text, the `--explain-strict` lines, the number of `--trace` lines per rule,
and the `--assert-measure` verdict with its message; for every entry call
of a fixture manifest it prints `kind calls allocs steps unfolds` on the
original and on the residual.  A residual whose text does not parse back
to it (modulo renaming) gets one `no read-back:` line with the reason.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
from collections import Counter
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import append_chain, map_chain  # noqa: E402

HANDWRITTEN = [
    "f xs = case xs of { [] -> 0; (h:t) -> h }; main y = f (case Cons y Nil of { v -> v });",
    "main y = case Cons y Nil of { (h:t) -> h };",
    "loop n = loop n; f b = let x = loop 1 in case b of { 0 -> x; _ -> 2 }; main b = f b;",
    "main = K (\\a -> \\b -> a) (\\c -> c);",
    "main x y = (let z = x * y in z + z) * (let w = x in w + 1);",
    "app f x = f x; main y = app (\\a -> a + 1) (app (\\b -> b * 2) y);",
    "twice f x = f (f x); main y = twice (\\a -> a + y) 3;",
    "main x = let f = \\a -> a + x in case x of { 0 -> f 1; n -> f n + f 2 };",
    "compose f g x = f (g x); inc u = u + 1; main y = compose inc (compose inc inc) y;",
]


def stress_programs() -> list[tuple[str, str]]:
    """(label, text) of tests/test_driver.py's STRESS_PROGRAMS, read without
    importing the test module.
    """
    tree = ast.parse((ROOT / "tests" / "test_driver.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "STRESS_PROGRAMS":
            return [(label, text) for label, text, *_ in ast.literal_eval(node.value)]
    raise SystemExit("no STRESS_PROGRAMS in tests/test_driver.py")


def programs(api) -> list[tuple[str, object, Optional[dict]]]:
    """(label, program, the fixture's manifest or None), in print order."""
    sys.path.insert(0, str(ROOT / "tests"))  # conftest imports the package from --src
    from conftest import FIXTURE_NAMES, fixture_manifest, fixture_program, generate_programs

    out = [(f"fixture {n}", fixture_program(n), fixture_manifest(n)) for n in FIXTURE_NAMES]
    for s in range(30):
        out += [(f"generated {s}/{i}", p, None) for i, p in enumerate(generate_programs(200, s))]
    out += [
        (f"criterion 3/{i}", p, None)
        for i, p in enumerate(generate_programs(500, seed=20240809))
    ]
    texts = [(f"append k={k}", append_chain(k)) for k in range(2, 13)]
    texts += [
        (f"map k={k}", map_chain([("inc", "dbl")[i % 2] for i in reversed(range(k))]))
        for k in range(4, 13)
    ]
    texts += [(f"stress {label}", text) for label, text in stress_programs()]
    texts += [(f"handwritten {i}", text) for i, text in enumerate(HANDWRITTEN)]
    return out + [(label, api.parse_program(text), None) for label, text in texts]


def counters(o) -> str:
    return f"{o.kind} {o.calls} {o.allocs} {o.steps} {o.unfolds}"


def report(api, label: str, program, manifest: Optional[dict]) -> None:
    print(f"== {label}")
    lines: list[str] = []
    explained: list[str] = []
    residual = api.supercompile(program, trace=lines.append, explain_strict=explained.append)
    text = api.pretty_program(residual)
    print(text, end="")
    try:
        if not api.program_alpha_eq(api.parse_program(text), residual):
            print("no read-back: the text parses to another program")
    except api.ParseError as err:
        print("no read-back:", str(err).replace("\n", " "))
    for line in explained:
        print("explain", line)
    rules = Counter(line.split(" ", 1)[0] for line in lines)
    print("rules", " ".join(f"{r}={n}" for r, n in sorted(rules.items())))
    try:
        api.supercompile(program, assert_measure=True)
        print("measure holds")
    except api.DriverError as err:
        print("measure trips:", err)
    if manifest is not None:
        fuel = manifest["fuel"] or 1_000_000
        for entry in manifest["entries"]:
            call = api.parse_expression(entry, frozenset(program.defs))
            before = api.eval_program(program, call, fuel)
            after = api.eval_program(residual, call, fuel)
            print(f"entry {entry}: {counters(before)} -> {counters(after)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the src/ directory of a checkout")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    api = importlib.import_module("deforest")
    for label, program, manifest in programs(api):
        report(api, label, program, manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
