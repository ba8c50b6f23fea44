"""The benchmark's workloads and the per-pass bookkeeping they share.

Every workload is a closed loop with one client: one input at a time, each
operation finished and checked before the next starts.

* corpus      the 11 shipped fixtures plus a fixed draw of generated
              programs with seeded entry calls: typical small-program
              traffic spread over the whole driver, with light evaluation.
* chains      two families that grow with k: an append chain, which has the
              exponential code explosion, and an alternating map chain, which
              has none; both are dominated by the whistle and folding.
* eval_lists  interpreter load: five fixtures run on seeded lists and trees
              at two sizes each; driving is under 1% of the time.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

OP_LIMIT_S = 10.0  # an operation slower than this counts as failed
FUEL = 1_000_000


class CheckFailed(Exception):
    pass


def node_count(program, expression_type) -> int:
    """AST nodes of all definitions (patterns and alternatives excluded)."""
    n = 0
    stack = list(program.defs.values())
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):
            stack.extend(t)
        elif is_dataclass(t):
            n += isinstance(t, expression_type)
            stack.extend(getattr(t, f.name) for f in fields(t))
    return n


def to_py(v, api):
    """A first-order value as Python data: ints, lists, (ctor, *args)."""
    if isinstance(v, api.IntLit):
        return v.value
    if isinstance(v, api.CtorApp):
        items = []
        while isinstance(v, api.CtorApp) and v.ctor == "Cons" and len(v.args) == 2:
            items.append(to_py(v.args[0], api))
            v = v.args[1]
        if isinstance(v, api.CtorApp) and v.ctor == "Nil" and not v.args:
            return items
        if items:
            return ("improper", items, to_py(v, api))
        return (v.ctor, *(to_py(a, api) for a in v.args))
    return ("other", api.pretty_expr(v))


class Pass:
    """One pass over a workload: runs operations, checks them, and collects
    timings and the interpreter's counters.
    """

    def __init__(self, api, tracer=None, check_reparse=False):
        self.api = api
        self.tracer = tracer
        self.check_reparse = check_reparse
        self.attempted = 0
        self.failures: list[str] = []
        self.build_ms: dict[str, float] = {}
        self.eval_s = {"orig": 0.0, "resid": 0.0}
        # calls, allocs, steps summed over calls where both sides give values
        self.counts = {"orig": [0, 0, 0], "resid": [0, 0, 0]}
        self.all_counts = [0, 0, 0]  # calls, allocs, steps of every eval
        self.diff_calls = 0
        self.violations = 0
        self.reparse_failed: set[str] = set()
        self.residuals: dict = {}  # label -> residual program
        self.records: list = []  # everything the determinism check compares
        self.digest = self.resid_nodes = None  # set by close()
        self.wall_s = 0.0

    def call(self, span: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(span, fn, *args, **kwargs)

    def attempt(self, label: str, fn, *args):
        """Run one operation; an exception, a failed check or a run over the
        per-operation limit counts it as failed.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any failure of the program under test
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if time.perf_counter() - t0 > OP_LIMIT_S:
            self.failures.append(f"{label}: over the {OP_LIMIT_S} s limit")
        return result

    # ------------------------------------------------------------------

    def build(self, label: str, text: str):
        """parse -> supercompile -> print; returns (original, residual)."""
        api = self.api
        kwargs = self.tracer.driver_callbacks() if self.tracer else {}
        t0 = time.perf_counter()
        program = self.call("parser.parse", api.parse_program, text)
        residual = self.call("driver.supercompile", api.supercompile, program, **kwargs)
        out = self.call("pretty.print", api.pretty_program, residual)
        self.build_ms[label] = (time.perf_counter() - t0) * 1e3
        self.residuals[label] = residual
        self.records.append((label, out))
        if self.check_reparse and not self._reparses(out, residual):
            self.reparse_failed.add(label)
        return program, residual

    def _reparses(self, out: str, residual) -> bool:
        """Whether the printed residual parses back to the same program.  A
        failure is a known printer defect (negative literals print as `-4`,
        which the parser rejects); it is counted, not failed, so that it
        stays visible in every run.  Only the warm-up pass checks it: the
        residual text is the same in every pass.
        """
        try:
            return self.api.program_alpha_eq(self.api.parse_program(out), residual)
        except self.api.ParseError:
            return False

    def golden(self, residual, golden) -> None:
        if not self.call("driver.golden_check", self.api.program_alpha_eq, residual, golden):
            raise CheckFailed("residual differs from its golden modulo renaming")

    def _eval(self, side: str, program, call, fuel: int):
        t0 = time.perf_counter()
        out = self.call("semantics.eval", self.api.eval_program, program, call, fuel)
        self.eval_s[side] += time.perf_counter() - t0
        self.all_counts[0] += out.calls
        self.all_counts[1] += out.allocs
        self.all_counts[2] += out.steps
        return out

    def differential(self, original, residual, call, fuel=FUEL, expected=None) -> None:
        """Run one entry call on the original and on the residual; both must
        give the same value (and `expected`, when given) or both run out of
        fuel.
        """
        api = self.api
        before = self._eval("orig", original, call, fuel)
        after = self._eval("resid", residual, call, fuel)
        if before.kind == after.kind == "value":
            vb, va = to_py(before.value, api), to_py(after.value, api)
            self.records.append((before.calls, before.allocs, before.steps, vb,
                                 after.calls, after.allocs, after.steps, va))
            if vb != va:
                raise CheckFailed(f"original gives {vb!r}, residual {va!r}")
            if expected is not None and va != expected:
                raise CheckFailed(f"expected {expected!r}, got {va!r}")
            for side, out in (("orig", before), ("resid", after)):
                c = self.counts[side]
                c[0] += out.calls
                c[1] += out.allocs
                c[2] += out.steps
            self.diff_calls += 1
            self.violations += after.calls > before.calls
            return
        self.records.append((before.kind, after.kind, before.steps, after.steps))
        if expected is not None or before.kind != after.kind or before.kind != "out_of_fuel":
            raise CheckFailed(f"outcomes {before.kind} and {after.kind}")

    def close(self) -> None:
        """Reduce the pass to its digest and residual size, so that passes
        kept for their timings do not hold on to terms.
        """
        self.digest = hashlib.sha256(repr(self.records).encode()).hexdigest()[:16]
        self.resid_nodes = sum(
            node_count(r, self.api.Expression) for r in self.residuals.values()
        )
        self.records = self.residuals = None


# ---------------------------------------------------------------------------
# input text


def list_text(xs) -> str:
    return "[" + ",".join(str(x) for x in xs) + "]"


def tree_text(tree) -> str:
    if isinstance(tree, int):
        return f"(Leaf {tree})"
    return f"(Branch {tree_text(tree[0])} {tree_text(tree[1])})"


def full_tree(rng: random.Random, depth: int):
    if depth == 0:
        return rng.randrange(10)
    return (full_tree(rng, depth - 1), full_tree(rng, depth - 1))


def tree_leaves(tree):
    if isinstance(tree, int):
        return [tree]
    return tree_leaves(tree[0]) + tree_leaves(tree[1])


def entry_call(api, program, text: str):
    return api.parse_expression(text, frozenset(program.defs))


# ---------------------------------------------------------------------------
# corpus


class Corpus:
    """Fixtures (checked against goldens and their manifests) plus GENERATED
    programs from the test suite's program generator, each entry call run on
    the original and on the residual.

    The generated programs are one fixed draw (PROGRAM_SEED, the draw the
    Tier-1 differential test uses); the benchmark seed draws the elements of
    their entry-call lists.  Build cost over generated programs has a heavy
    tail (in one draw of 600, one program took a third of the build time),
    so a draw that changed with the seed would move the totals by 10-30%
    from seed to seed and hide any change smaller than that.
    """

    GENERATED = 150
    PROGRAM_SEED = 20240809
    # One entry call per input length the generator's own entry calls use
    # (0-4).  Generated programs branch only on list shape, so the seed
    # changes the elements and not the amount of work.
    CALL_LENGTHS = range(5)

    def __init__(self, api, fixtures: Path, conftest):
        self.api = api
        self.fixtures = fixtures
        self.conftest = conftest

    def prepare(self, seed: int) -> dict:
        api, conftest = self.api, self.conftest
        items = []
        for name in conftest.FIXTURE_NAMES:
            text = (self.fixtures / f"{name}.core").read_text()
            manifest = conftest.fixture_manifest(name)
            program = api.parse_program(text)
            calls = [entry_call(api, program, e) for e in manifest["entries"]]
            golden = api.parse_program(
                (self.fixtures / manifest["golden"]).read_text()
            )
            items.append((name, text, golden, calls, manifest["fuel"] or FUEL))
        rng = random.Random(f"corpus-calls-{seed}")
        main = frozenset({"main"})
        for i, program in enumerate(conftest.generate_programs(self.GENERATED, seed=self.PROGRAM_SEED)):
            calls = [
                api.parse_expression(
                    f"main {list_text(rng.randrange(4) for _ in range(n))}", main
                )
                for n in self.CALL_LENGTHS
            ]
            items.append((f"gen{i}", api.pretty_program(program), None, calls, FUEL))
        return {"items": items}

    def run(self, p: Pass, state: dict) -> None:
        for label, text, golden, calls, fuel in state["items"]:
            built = p.attempt(f"{label} build", p.build, label, text)
            if built is None:
                continue
            original, residual = built
            if golden is not None:
                p.attempt(f"{label} golden", p.golden, residual, golden)
            for j, call in enumerate(calls):
                p.attempt(f"{label} call {j}", p.differential, original, residual, call, fuel)


# ---------------------------------------------------------------------------
# chains

APPEND = "append xs ys = case xs of { [] -> ys; (x:xs') -> x : append xs' ys };\n"
MAP = (
    "map f xs = case xs of { [] -> []; (x:xs') -> f x : map f xs' };\n"
    "inc x = x + 1;\n"
    "dbl x = x * 2;\n"
)
MAP_FUNCTIONS = {"inc": lambda x: x + 1, "dbl": lambda x: x * 2}


def append_chain(k: int) -> str:
    """main x0 .. xk = append (... (append x0 x1) ...) xk"""
    e = "x0"
    for i in range(1, k + 1):
        e = f"append ({e}) x{i}"
    params = " ".join(f"x{i}" for i in range(k + 1))
    return APPEND + f"main {params} = {e};\n"


def map_chain(fs: list[str]) -> str:
    """main xs = map f1 (map f2 (... (map fk xs)))"""
    e = "xs"
    for f in reversed(fs):
        e = f"map {f} ({e})"
    return MAP + f"main xs = {e};\n"


class Chains:
    """Append chains for APPEND_K and alternating map chains for MAP_K, each
    checked on INPUTS small inputs.  The seed picks the inc/dbl sequences and
    the list elements; list lengths are fixed, so the interpreter's counters
    do not change with the seed.
    """

    APPEND_K = range(2, 8)
    MAP_K = range(4, 13)
    INPUTS = 4

    def __init__(self, api):
        self.api = api

    def prepare(self, seed: int) -> dict:
        rng = random.Random(f"chains-{seed}")
        main = frozenset({"main"})

        def ints(n):
            return [rng.randrange(10) for _ in range(n)]

        items = []
        for k in self.APPEND_K:
            checks = []
            for j in range(self.INPUTS):
                lists = [ints((i + j) % 4) for i in range(k + 1)]
                call = "main " + " ".join(list_text(xs) for xs in lists)
                checks.append((self.api.parse_expression(call, main), sum(lists, [])))
            items.append((f"append{k}", append_chain(k), checks))
        for k in self.MAP_K:
            fs = [rng.choice(sorted(MAP_FUNCTIONS)) for _ in range(k)]
            checks = []
            for j in range(self.INPUTS):
                xs = ints(j + 2)
                expected = list(xs)
                for f in reversed(fs):
                    expected = [MAP_FUNCTIONS[f](x) for x in expected]
                checks.append((self.api.parse_expression(f"main {list_text(xs)}", main), expected))
            items.append((f"map{k}", map_chain(fs), checks))
        return {"items": items}

    def run(self, p: Pass, state: dict) -> None:
        for label, text, checks in state["items"]:
            built = p.attempt(f"{label} build", p.build, label, text)
            if built is None:
                continue
            original, residual = built
            for j, (call, expected) in enumerate(checks):
                p.attempt(f"{label} call {j}", p.differential, original, residual, call, FUEL, expected)


# ---------------------------------------------------------------------------
# eval_lists


class EvalLists:
    """Five fixtures, each built and checked against its golden, then run on
    seeded inputs at two sizes each.  Building is under 1% of a pass.
    """

    SIZES = {
        "double_append": (30, 60),
        "sum_map_square": (100, 200),
        "vecdot": (50, 100),
        "rev_accum": (80, 160),
        "flip_tree": (6, 8),  # tree depth
    }

    def __init__(self, api, fixtures: Path):
        self.api = api
        self.fixtures = fixtures

    @staticmethod
    def _input(name: str, size: int, rng: random.Random):
        def ints(n):
            return [rng.randrange(10) for _ in range(n)]

        if name == "double_append":
            xs, ys, zs = ints(size), ints(size), ints(size)
            return f"main {list_text(xs)} {list_text(ys)} {list_text(zs)}", xs + ys + zs
        if name == "sum_map_square":
            xs = ints(size)
            return f"main {list_text(xs)}", sum(x * x for x in xs)
        if name == "vecdot":
            xs, ys = ints(size), ints(size)
            return f"main {list_text(xs)} {list_text(ys)}", sum(x * y for x, y in zip(xs, ys))
        if name == "rev_accum":
            xs = ints(size)
            return f"main {list_text(xs)}", xs[::-1]
        if name == "flip_tree":
            tree = full_tree(rng, size)
            return f"main {tree_text(tree)}", sum(tree_leaves(tree))
        raise ValueError(name)

    def prepare(self, seed: int) -> dict:
        api = self.api
        rng = random.Random(f"eval_lists-{seed}")
        items = []
        for name, sizes in self.SIZES.items():
            text = (self.fixtures / f"{name}.core").read_text()
            golden = api.parse_program((self.fixtures / "golden" / f"{name}.core").read_text())
            program = api.parse_program(text)
            checks = []
            for size in sizes:
                call_text, expected = self._input(name, size, rng)
                checks.append((size, entry_call(api, program, call_text), expected))
            items.append((name, text, golden, checks))
        return {"items": items}

    def run(self, p: Pass, state: dict) -> None:
        for name, text, golden, checks in state["items"]:
            built = p.attempt(f"{name} build", p.build, name, text)
            if built is None:
                continue
            original, residual = built
            p.attempt(f"{name} golden", p.golden, residual, golden)
            for size, call, expected in checks:
                p.attempt(f"{name}/{size} eval", p.differential, original, residual, call,
                          FUEL, expected)
