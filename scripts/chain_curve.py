"""Residual size and build time of append and map chains as k grows.

    python3 scripts/chain_curve.py --src src --out BENCH_fold.json --side change
    python3 scripts/chain_curve.py --src src --parent-src PARENT/src --out BENCH_fold.json

For each append chain k = 2..16 (`main x0 .. xk = append (... (append x0 x1)
...) xk`) and each map chain k = 4..16 (`main xs = map inc (map dbl (...))`,
alternating), it parses, supercompiles and prints the program, and records
the number of residual definitions and the median build time in ms.

The chain programs are those of the benchmark's `chains` workload, imported
from `bench/workloads.py`.  A build is repeated up to REPEATS times, but no
more once the builds of that k have taken LIMIT_S seconds together on some
side; the sides take turns (`curve_harness.alternate`), with the collector
off inside each build.  A family stops after the first k whose first build
takes longer than LIMIT_S on some side: a driver that is exponential in k is
measured up to that point and no further.  The flags `--src`,
`--parent-src`, `--out` and `--side` are those of `curve_harness.run`.
"""

from __future__ import annotations

import statistics
import sys
from functools import partial
from pathlib import Path

from curve_harness import alternate, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import append_chain, map_chain  # noqa: E402

REPEATS = 5
LIMIT_S = 5.0


def alternating_map_chain(k: int) -> str:
    """main xs = map f (... (map dbl (map inc xs))), inc innermost"""
    return map_chain([("inc", "dbl")[i % 2] for i in reversed(range(k))])


def build(api, text: str) -> int:
    """The residual definitions of one parse-drive-print."""
    residual = api.supercompile(api.parse_program(text))
    api.pretty_program(residual)
    return len(residual.defs)


def curve(sides: dict, family, ks) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = {side: [] for side in sides}
    for k in ks:
        text = family(k)
        times, defs = alternate({side: partial(build, api, text) for side, (api, _) in sides.items()},
                                REPEATS, LIMIT_S)
        for side in sides:
            ms = [t * 1e3 for t in times[side]]
            rows[side].append({"k": k, "defs": defs[side], "build_ms": statistics.median(ms),
                               "runs": len(ms)})
            print(f"{side} {family.__name__} k={k}: {defs[side]} defs, "
                  f"{rows[side][-1]['build_ms']:.1f} ms", file=sys.stderr)
        if max(ts[0] for ts in times.values()) > LIMIT_S:
            break
    return rows


def curves(sides: dict) -> dict:
    append = curve(sides, append_chain, range(2, 17))
    map_ = curve(sides, alternating_map_chain, range(4, 17))
    return {
        side: {"repeats": REPEATS, "limit_s": LIMIT_S, "append": append[side], "map": map_[side]}
        for side in sides
    }


def main(argv=None) -> int:
    return run(__doc__, curves, argv)


if __name__ == "__main__":
    sys.exit(main())
