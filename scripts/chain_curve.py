"""Residual size and build time of append and map chains as k grows.

    python3 scripts/chain_curve.py --src src --out BENCH_fold.json --side change

For each append chain k = 2..16 (`main x0 .. xk = append (... (append x0 x1)
...) xk`) and each map chain k = 4..16 (`main xs = map inc (map dbl (...))`,
alternating), it parses, supercompiles and prints the program, and records
the number of residual definitions and the median build time in ms.  The
package is imported from `--src`, the `src/` directory of any checkout, so
that two versions can be measured with one script.

The chain programs are those of the benchmark's `chains` workload, imported
from `bench/workloads.py`.  A build is repeated up to REPEATS times, but no
more once the builds of that k have taken LIMIT_S seconds together.  A family
stops after the first k whose single build takes longer than LIMIT_S: a
driver that is exponential in k is measured up to that point and no further.

With `--out` and `--side`, the result is stored under that side's key of the
JSON file, keeping the others, so that `{"parent": ..., "change": ...}` can
be written by two runs.  Without `--out` it goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the src/ directory of a checkout")
    ap.add_argument("--out", help="JSON file to store the result in")
    ap.add_argument("--side", default="change", help="key of the result in --out")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import deforest as api

    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, nproc {os.cpu_count()}",
        "repeats": REPEATS,
        "limit_s": LIMIT_S,
        "append": curve(api, append_chain, range(2, 17)),
        "map": curve(api, alternating_map_chain, range(4, 17)),
    }
    if args.out is None:
        json.dump(result, sys.stdout, indent=1)
        print()
        return 0
    out = Path(args.out)
    sides = json.loads(out.read_text()) if out.exists() else {}
    sides[args.side] = result
    out.write_text(json.dumps(sides, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
