"""The deforest benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --out bench/baseline.json

One workload runs in one single-threaded process: set-up, then passes over
the workload's inputs until --seconds have gone by.  With --trace 0 every
pass runs untraced and the last line of standard output is a JSON object
with the end-to-end metrics declared in BENCHMARK.json; with --trace 1
untraced and traced passes alternate, and the JSON carries the per-layer
metrics.  Every output is checked, and every pass must reproduce the
residual text and counters of the first one.

`--workload all` runs each workload in its own process, untraced and then
traced, checks that the two processes agree on residuals and counters,
prints a summary and, with --out, writes all results to a JSON file.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("corpus", "chains", "eval_lists")
SETUP_REPEATS = 5
MIN_PASSES = 3


def load_api(workload: str):
    """Import the package under test from this checkout's `src/`; exit with
    code 1 when it is not there.  Returns (api, conftest or None).
    """
    src = ROOT / "src"
    if not (src / "deforest" / "__init__.py").is_file():
        sys.exit(f"bench: no deforest package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    api = importlib.import_module("deforest")
    if Path(api.__file__).resolve().parent != src / "deforest":
        sys.exit(f"bench: imported deforest from {api.__file__}, not from {src}")
    conftest = None
    if workload == "corpus":
        if not (ROOT / "tests" / "conftest.py").is_file():
            sys.exit("bench: the corpus workload needs tests/conftest.py")
        sys.path.insert(0, str(ROOT / "tests"))
        conftest = importlib.import_module("conftest")
    return api, conftest


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_s: float, passes: list) -> dict:
    """End-to-end metrics of the untraced passes, as name -> (value, unit)."""
    first = passes[0]
    per_program = [
        statistics.median(p.build_ms[label] for p in passes)
        for label in first.build_ms
    ]
    o, r = first.counts["orig"], first.counts["resid"]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "build_ms.p50": (percentile(per_program, 50), "ms"),
        "build_ms.p90": (percentile(per_program, 90), "ms"),
        "eval_steps_per_s": (
            statistics.median(
                ratio(p.all_counts[2], p.eval_s["orig"] + p.eval_s["resid"]) for p in passes
            ),
            "1/s",
        ),
        "resid_steps_ratio": (ratio(r[2], o[2]), "ratio"),
        "resid_calls_ratio": (ratio(r[0], o[0]), "ratio"),
        "resid_allocs_ratio": (ratio(r[1], o[1]), "ratio"),
        "resid_time_ratio": (
            statistics.median(ratio(p.eval_s["resid"], p.eval_s["orig"]) for p in passes),
            "ratio",
        ),
        "resid_nodes": (first.resid_nodes, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "improvement_violation_ratio": (ratio(first.violations, first.diff_calls), "ratio"),
    }


def run_workload(args) -> int:
    api, conftest = load_api(args.workload)
    import spans
    import workloads

    import_s = time.perf_counter() - _T_START
    sys.setrecursionlimit(100_000)
    fixtures = ROOT / "src" / "deforest" / "fixtures"
    workload = {
        "corpus": lambda: workloads.Corpus(api, fixtures, conftest),
        "chains": lambda: workloads.Chains(api),
        "eval_lists": lambda: workloads.EvalLists(api, fixtures),
    }[args.workload]()

    failures: list[str] = []
    attempted = 0
    digests: set[str] = set()

    def account(p, what: str) -> None:
        nonlocal attempted
        p.close()
        attempted += p.attempted + 1  # the determinism check is one more
        failures.extend(p.failures)
        digests.add(p.digest)
        if len(digests) > 1:
            failures.append(f"{what}: residuals or counters differ from an earlier pass")
            digests.discard(p.digest)

    # set-up, repeated; its median is reported
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.prepare(args.seed)
        setup_times.append(time.perf_counter() - t0)

    # warm-up: the first pass in a process runs about a quarter slower
    warm = workloads.Pass(api, check_reparse=True)
    gc.collect()
    t0 = time.perf_counter()
    workload.run(warm, state)
    setup_s = import_s + statistics.median(setup_times) + time.perf_counter() - t0
    account(warm, "warm-up pass")

    tracer = spans.Tracer() if args.trace else None
    untraced, traced, layer_runs = [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while (
        time.perf_counter() < deadline
        or len(untraced) < MIN_PASSES
        or (tracer is not None and len(traced) < MIN_PASSES)
    ):
        on = tracer is not None and i % 2 == 1
        i += 1
        p = workloads.Pass(api, tracer if on else None)
        gc.collect()
        if on:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.run(p, state)
        finally:
            p.wall_s = time.perf_counter() - t0
            if on:
                for name in tracer.uninstall():
                    failures.append(f"traced pass: {name} was not restored")
        account(p, "traced pass" if on else "pass")
        if not on:
            untraced.append(p)
            continue
        traced.append(p)
        layer_runs.append(check_spans(tracer, p, failures))

    e2e = end_to_end(setup_s, untraced)
    e2e["pretty.reparse_fail_ratio"] = (
        ratio(len(warm.reparse_failed), len(warm.build_ms)), "ratio"
    )
    if tracer is not None:
        metrics = traced_metrics(layer_runs, traced, untraced, e2e, failures)
        for name in tracer.missing:
            print(f"not traced (absent): {name}")
    else:
        metrics = e2e

    first = untraced[0]
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced, {len(traced)} traced passes")
    print(f"digest {first.digest}")
    walls = sorted(p.wall_s for p in untraced)
    print("untraced pass_s " + " ".join(f"{w:.4f}" for w in walls))
    print(f"fail_ratio {ratio(len(failures), attempted):.6f} ratio "
          f"({len(failures)}/{attempted})")
    for line in failures[:20]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    wanted = declared_metrics()[args.trace]
    out = {}
    for name, unit in wanted.items():
        if name not in metrics or metrics[name][1] != unit:
            failures.append(f"metric {name} ({unit}) was not measured")
            continue
        out[name] = {"value": metrics[name][0], "unit": unit}
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": out,
    }))
    return 0 if correct else 1


def check_spans(tracer, p, failures: list[str]) -> tuple:
    """Self times must be >= 0 and sum to at most the pass's wall time.
    Returns the pass's span statistics and counters.
    """
    total = 0.0
    for name, (_, self_s) in tracer.spans.items():
        if self_s < -1e-9:
            failures.append(f"span {name}: negative self time {self_s}")
        total += self_s
    if total > p.wall_s + 1e-6:
        failures.append(f"span self times {total:.4f} s exceed the pass ({p.wall_s:.4f} s)")
    return tracer.spans, tracer.counts


def traced_metrics(layer_runs, traced, untraced, e2e, failures) -> dict:
    """Per-layer metrics: median self times over the traced passes; counts
    must be the same in every traced pass.
    """
    import spans

    def counted(run):
        span_stats, counts = run
        return dict(counts), {name: s[0] for name, s in span_stats.items()}

    if any(counted(run) != counted(layer_runs[0]) for run in layer_runs):
        failures.append("per-layer counts differ between traced passes")
    per_pass = []
    for (span_stats, counts), p in zip(layer_runs, traced):
        m = spans.layer_metrics(span_stats, counts)
        m["semantics.steps"] = (p.all_counts[2], "count")
        m["semantics.calls"] = (p.all_counts[0], "count")
        m["semantics.allocs"] = (p.all_counts[1], "count")
        per_pass.append(m)
    out = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        out[name] = (statistics.median(values) if unit == "s" else values[0], unit)
    out["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced),
        "ratio",
    )
    for name in ("improvement_violation_ratio", "pretty.reparse_fail_ratio"):
        out[name] = e2e[name]
    return out


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    results, ok = {}, True
    for name in WORKLOAD_NAMES:
        digests = set()
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            digests.update(l.split()[1] for l in lines if l.startswith("digest "))
            key = "per_layer" if trace else "end_to_end"
            entry = results.setdefault(name, {"attempted": 0, "failed": 0})
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            ok &= result["correct"]
        if len(digests) != 1:
            print(f"{name}: untraced and traced processes disagree: {sorted(digests)}")
            ok = False
        results.setdefault(name, {})["digest"] = sorted(digests)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed,
            "seconds": args.seconds,
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {platform.system()}, nproc "
                       f"{len(os.sched_getaffinity(0))}",
            "correct": ok,
            "workloads": results,
        }, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="deforest benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write the results here")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
