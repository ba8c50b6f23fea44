"""Span tracing for the benchmark's traced runs.

Nothing under `src/` knows about it.  The tracer records spans in two ways:

* around the calls the benchmark itself makes into a layer (parse,
  supercompile, print, eval, the golden check), through `Tracer.call`;
* around the public callables that the package modules import from each
  other, by rebinding the importing module's name to a wrapper for the
  duration of one traced pass (`install`/`uninstall`).

Spans are aggregated in memory per name (calls and self time); a span's
self time is its duration minus the time covered by its child spans.
The driver's own `trace=` and `explain_strict=` callbacks give the per-rule
counts and the let-inlining decisions.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute, span name, result hook, timed)
# A wrapper on `deforest.driver.X` sees only the driver's calls of X; calls
# made inside the defining module keep going to the original function.
TARGETS = [
    ("deforest.driver", "embeds", "generalize.embeds", "hits", True),
    ("deforest.generalize", "to_uniform", "generalize.to_uniform", None, True),
    ("deforest.driver", "split", "generalize.split", "holes", True),
    ("deforest.driver", "match_renaming", "driver.match_renaming", "found", True),
    ("deforest.driver", "substitute", "driver.substitute", None, True),
    ("deforest.driver", "free_vars", "driver.free_vars", None, True),
    ("deforest.driver", "fun_names", "driver.fun_names", None, True),
    ("deforest.driver", "strict_vars", "analysis.strict_vars", None, True),
    ("deforest.driver", "is_annoying", "analysis.is_annoying", None, True),
    ("deforest.driver", "lift_letrecs", "driver.lift", None, True),
    ("deforest.semantics", "substitute", "semantics.substitute", None, True),
    ("deforest.semantics", "bind_externals", "semantics.bind_externals", None, True),
    # count-only: tokenizing stays inside the parser.parse span
    ("deforest.parser", "tokenize", "parser.tokenize", "tokens", False),
]


class Tracer:
    def __init__(self) -> None:
        self.missing: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, self_s]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    # spans

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            s = self.spans.get(name)
            if s is None:
                s = self.spans[name] = [0, 0.0]
            s[0] += 1
            s[1] += dt - frame[0]

    def on_rule(self, line: str) -> None:
        """`trace=` callback of `supercompile`: one line per rule applied."""
        self.counts["driver.rule." + line.split(" ", 1)[0]] += 1

    def on_explain(self, line: str) -> None:
        """`explain_strict=` callback: "let x: strict={a, b} linear=True".
        Rule R13 substitutes the let exactly when x is strict and linear.
        """
        head, _, rest = line.partition(": strict={")
        strict, _, linear = rest.rpartition("} linear=")
        inlined = head[len("let "):] in strict.split(", ") and linear == "True"
        self.counts["analysis.lets"] += 1
        self.counts["analysis.lets_inlined"] += inlined

    def driver_callbacks(self) -> dict:
        return {"trace": self.on_rule, "explain_strict": self.on_explain}

    # ------------------------------------------------------------------
    # rebinding

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, hook, timed in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper(module, attr, original, name, hook, timed)
            setattr(module, attr, wrapper)
            self._bindings.append((module, attr, original, wrapper))

    def uninstall(self) -> list[str]:
        """Restore every rebound name; returns those that were not restored."""
        not_restored = []
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
            if getattr(module, attr) is not original:
                not_restored.append(f"{module.__name__}.{attr}")
        self._bindings = []
        return not_restored

    def _wrapper(self, module, attr, original, name, hook, timed):
        tracer = self

        def wrapper(*args, **kwargs):
            # While the call runs, the module name points at the original, so
            # a function that recurses through this binding (to_uniform,
            # lift_letrecs) is counted and timed once, at its top level.
            setattr(module, attr, original)
            try:
                if timed:
                    result = tracer.call(name, original, *args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                setattr(module, attr, wrapper)
            if hook == "hits":
                tracer.counts[name + ".hits"] += bool(result)
            elif hook == "found":
                tracer.counts[name + ".hits"] += result is not None
            elif hook == "holes":
                tracer.counts[name + ".holes"] += len(result[2])
            elif hook == "tokens":
                tracer.counts["parser.tokens"] += len(result)
            return result

        return wrapper


def layer_metrics(spans: dict, counts: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for span in (
        "generalize.embeds",
        "generalize.to_uniform",
        "generalize.split",
        "driver.match_renaming",
        "driver.substitute",
        "driver.free_vars",
        "driver.fun_names",
        "semantics.substitute",
        "analysis.strict_vars",
        "analysis.is_annoying",
        "semantics.eval",
    ):
        out[span + ".calls"] = (calls(span), "count")
        out[span + ".self_s"] = (self_s(span), "s")
    for span, metric in (
        ("driver.supercompile", "driver.self_s"),
        ("driver.lift", "driver.lift.self_s"),
        ("driver.golden_check", "driver.golden_check.self_s"),
        ("semantics.bind_externals", "semantics.bind_externals.self_s"),
        ("parser.parse", "parser.parse.self_s"),
        ("pretty.print", "pretty.print.self_s"),
    ):
        out[metric] = (self_s(span), "s")
    for span in ("generalize.embeds", "driver.match_renaming"):
        out[span + ".hit_ratio"] = (ratio(counts[span + ".hits"], calls(span)), "ratio")
    out["generalize.split.holes"] = (counts["generalize.split.holes"], "count")
    out["parser.tokens"] = (counts["parser.tokens"], "count")
    out["analysis.let_inline_ratio"] = (
        ratio(counts["analysis.lets_inlined"], counts["analysis.lets"]),
        "ratio",
    )
    for rule in RULES:
        out["driver.rule." + rule] = (counts["driver.rule." + rule], "count")
    return out


RULES = [f"R{i}" for i in range(1, 21)] + [
    "Dapp1",
    "Dapp2",
    "Dapp3",
    "Dapp4",
    "Dapp4a",
    "Dapp4b",
]
