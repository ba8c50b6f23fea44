"""An untyped grammar fuzz of the driver: random program texts, each built
and run on both sides, the original against its residual.

    python3 tests/grammar_fuzz.py --seed 1 --seed 2 --programs 1500

A program has one to three definitions of zero to two parameters, the last
of them `main`.  Their terms use lambdas, lets, list and integer cases, the
constructor `K`, `:`, arithmetic, calls of the definitions, applications of
variables, and the externals `y`, `z` and `g` (the interpreter binds an
external to the identity function).  Binders are drawn from names that
include `y` and `z`, so a binder may shadow an external.  Terms are made so
that they parse and validate: nothing applies an integer or a constructor,
and a pattern never repeats a binder.  They are not typed, so many calls get
stuck, on arithmetic over a list for instance; `fuzz` counts a text that is
refused all the same.

Each program gets CALLS entry calls of `main` on closed arguments, run at
FUEL on the original and on the residual.  `fuzz` tallies each pair of
outcome kinds and lists the faults: a program that validates but does not
build, a value that differs (`cli._same_value`), and a value call whose
residual takes more `calls` or more `unfolds`.  The test suite asserts that
these lists are empty and that no call flips from out of fuel or stuck to a
value: driving must neither end a divergent program nor make a stuck one go
on.  Run as a script, it exits 1 when any of these lists is not empty.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass, field

from deforest import eval_program, parse_expression, parse_program, supercompile
from deforest.cli import _same_value
from deforest.parser import ParseError
from deforest.syntax import SyntaxError_, validate_program

BINDERS = ("x", "y", "z", "a", "b")
EXTERNALS = ("y", "z", "g")
ARGUMENTS = ("0", "1", "3", "[]", "[1, 2]", "(\\a -> a + 1)", "(K 1 [])")
KINDS = ("lambda", "let", "list case", "int case", "K", "cons", "arith", "call", "apply")
FUEL = 3000
CALLS = 4
DEPTH = 3


class TermGen:
    """Program texts from one seeded random stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def program(self) -> tuple[str, int]:
        """A program text and the number of parameters of its `main`."""
        rng = self.rng
        n = rng.randint(1, 3)
        names = [f"f{i}" for i in range(n - 1)] + ["main"]
        self.arity = {name: rng.randint(0, 2) for name in names}
        lines = []
        for name in names:
            params = rng.sample(BINDERS, self.arity[name])
            lines.append(" ".join([name, *params]) + " = " + self.term(params, DEPTH) + ";")
        return "\n".join(lines), self.arity["main"]

    def term(self, env: list[str], depth: int) -> str:
        rng = self.rng
        if depth == 0 or rng.random() < 0.25:
            return self.leaf(env)
        kind, d = rng.choice(KINDS), depth - 1
        if kind == "lambda":
            v = rng.choice(BINDERS)
            return f"(\\{v} -> {self.term(env + [v], d)})"
        if kind == "let":
            v = rng.choice(BINDERS)
            return f"(let {v} = {self.term(env, d)} in {self.term(env + [v], d)})"
        if kind == "list case":
            h, t = rng.sample(BINDERS, 2)
            return (
                f"(case {self.term(env, d)} of {{ [] -> {self.term(env, d)};"
                f" ({h} : {t}) -> {self.term(env + [h, t], d)} }})"
            )
        if kind == "int case":
            v = rng.choice(BINDERS)
            return (
                f"(case {self.term(env, d)} of {{ {rng.randrange(2)} -> {self.term(env, d)};"
                f" {v} -> {self.term(env + [v], d)} }})"
            )
        if kind == "K":
            return f"(K {self.term(env, d)} {self.term(env, d)})"
        if kind == "cons":
            return f"({self.term(env, d)} : {self.term(env, d)})"
        if kind == "arith":
            return f"({self.term(env, d)} {rng.choice('+-*')} {self.term(env, d)})"
        if kind == "call":
            f = rng.choice(list(self.arity))
            return "(" + " ".join([f] + [self.term(env, d) for _ in range(self.arity[f])]) + ")"
        head = rng.choice([*env, *EXTERNALS, f"(\\{rng.choice(BINDERS)} -> {self.term(env, d)})"])
        return f"({head} {self.term(env, d)})"

    def leaf(self, env: list[str]) -> str:
        rng = self.rng
        pick = rng.random()
        if pick < 0.3:
            return str(rng.randrange(4))
        if pick < 0.6 and env:
            return rng.choice(env)
        if pick < 0.75:
            return rng.choice(EXTERNALS)
        if pick < 0.85:
            return "[]"
        return rng.choice(list(self.arity))  # a call without arguments, or a function value


@dataclass
class Tally:
    programs: int = 0
    refused: int = 0
    outcomes: Counter = field(default_factory=Counter)  # (original kind, residual kind)
    steps: list[int] = field(default_factory=lambda: [0, 0])  # over calls that give values
    unbuilt: list = field(default_factory=list)  # (text, error)
    value_diffs: list = field(default_factory=list)  # (text, entry)
    calls_grow: list = field(default_factory=list)  # (text, entry)
    unfolds_grow: list = field(default_factory=list)  # (text, entry)
    to_value: list = field(default_factory=list)  # (text, entry, original kind)


def fuzz(seed: int, count: int) -> Tally:
    """Build and run `count` programs of the stream `seed`."""
    rng = random.Random(seed)
    gen, tally = TermGen(rng), Tally()
    for _ in range(count):
        text, arity = gen.program()
        entries = [
            " ".join(["main", *(rng.choice(ARGUMENTS) for _ in range(arity))]) for _ in range(CALLS)
        ]
        tally.programs += 1
        try:
            program = parse_program(text)
            validate_program(program)
        except (ParseError, SyntaxError_):
            tally.refused += 1
            continue
        try:
            residual = supercompile(program)
        except Exception as err:  # any error is a fault: the program is valid
            tally.unbuilt.append((text, repr(err)))
            continue
        for entry in entries:
            call = parse_expression(entry, frozenset(program.defs))
            before = eval_program(program, call, FUEL)
            after = eval_program(residual, call, FUEL)
            tally.outcomes[before.kind, after.kind] += 1
            if after.kind != "value":
                continue
            if before.kind != "value":
                tally.to_value.append((text, entry, before.kind))
                continue
            tally.steps[0] += before.steps
            tally.steps[1] += after.steps
            if not _same_value(before.value, after.value):
                tally.value_diffs.append((text, entry))
            if after.calls > before.calls:
                tally.calls_grow.append((text, entry))
            if after.unfolds > before.unfolds:
                tally.unfolds_grow.append((text, entry))
    return tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, action="append", help="a stream to draw (repeatable)")
    ap.add_argument("--programs", type=int, default=1500, help="programs per seed")
    args = ap.parse_args(argv)
    failed = False
    for seed in args.seed or [1]:
        t = fuzz(seed, args.programs)
        print(f"seed {seed}: {t.programs} programs, {t.refused} refused")
        for (a, b), n in sorted(t.outcomes.items()):
            print(f"  {a} -> {b}: {n}")
        print(f"  value calls: steps {t.steps[0]} -> {t.steps[1]}")
        for label, items in (("unbuilt", t.unbuilt), ("value differs", t.value_diffs),
                             ("calls grow", t.calls_grow), ("unfolds grow", t.unfolds_grow),
                             ("to a value", t.to_value)):
            print(f"  {label}: {len(items)}")
            for item in items[:3]:
                print("   ", " | ".join(map(str, item)).replace("\n", " "))
            failed = failed or bool(items)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
