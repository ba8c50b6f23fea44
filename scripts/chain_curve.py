"""Residual size and build time of append and map chains as k grows.

    python3 scripts/chain_curve.py --src src --out BENCH_fold.json --side change

For each append chain k = 2..16 (`main x0 .. xk = append (... (append x0 x1)
...) xk`) and each map chain k = 4..16 (`main xs = map inc (map dbl (...))`,
alternating), it parses, supercompiles and prints the program, and records
the number of residual definitions and the median build time in ms.

The chain programs are those of the benchmark's `chains` workload, imported
from `bench/workloads.py`.  A build is repeated up to REPEATS times, but no
more once the builds of that k have taken LIMIT_S seconds together.  A family
stops after the first k whose single build takes longer than LIMIT_S: a
driver that is exponential in k is measured up to that point and no further.
The flags `--src`, `--out` and `--side` are those of `curve_harness.run`.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

from curve_harness import run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import append_chain, map_chain  # noqa: E402

REPEATS = 5
LIMIT_S = 5.0


def alternating_map_chain(k: int) -> str:
    """main xs = map f (... (map dbl (map inc xs))), inc innermost"""
    return map_chain([("inc", "dbl")[i % 2] for i in reversed(range(k))])


def build(api, text: str) -> tuple[int, float]:
    """(residual definitions, build time in ms) of one parse-drive-print."""
    t0 = time.perf_counter()
    residual = api.supercompile(api.parse_program(text))
    api.pretty_program(residual)
    return len(residual.defs), (time.perf_counter() - t0) * 1e3


def curve(api, family, ks) -> list[dict]:
    rows = []
    for k in ks:
        text = family(k)
        times = []
        while not times or (len(times) < REPEATS and sum(times) < LIMIT_S * 1e3):
            defs, ms = build(api, text)
            times.append(ms)
        rows.append({"k": k, "defs": defs, "build_ms": statistics.median(times), "runs": len(times)})
        print(f"{family.__name__} k={k}: {defs} defs, {rows[-1]['build_ms']:.1f} ms", file=sys.stderr)
        if times[0] > LIMIT_S * 1e3:
            break
    return rows


def curves(api, src: Path) -> dict:
    return {
        "repeats": REPEATS,
        "limit_s": LIMIT_S,
        "append": curve(api, append_chain, range(2, 17)),
        "map": curve(api, alternating_map_chain, range(4, 17)),
    }


def main(argv=None) -> int:
    return run(__doc__, curves, argv)


if __name__ == "__main__":
    sys.exit(main())
