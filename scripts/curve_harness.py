"""The command line that the curve scripts share.

    python3 scripts/<name>_curve.py --src src --out BENCH_<name>.json --side change
    python3 scripts/<name>_curve.py --src src --parent-src PARENT/src --out BENCH_<name>.json

`run` parses the flags, imports the deforest package from `--src` (the
`src/` directory of any checkout) and hands it, with that directory, to the
script's `curves` as the side named by `--side`.  With `--parent-src`, the
package of that second checkout is loaded too, under the module name
`deforest_parent`, as the side `parent`; `curves` then measures both sides
in the one process, and `alternate` takes turns between them at every
measurement, so that the machine's drift during the run falls on both alike.

`curves` gets `{side: (package, src directory)}` and returns one dict per
side; each is stored after the Python version, the machine and the sides
measured in the same run.  With `--out`, they are stored under their side's
key of that JSON file, keeping the other keys; without it they go to
standard output.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable

PARENT_MODULE = "deforest_parent"


def load_package(src: Path, name: str):
    """The deforest package under src, imported as the module `name`."""
    root = src / "deforest"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def alternate(runs: dict[str, Callable[[], object]], repeats: int, limit_s: float = float("inf")):
    """Call each side's run `repeats` times, the sides taking turns and the
    first side changing every round, with the collector off inside each
    timed call.  Stops after the round in which some side's calls have
    taken `limit_s` seconds together.  Returns each side's times in seconds
    and its last result.
    """
    order = list(runs)
    times: dict[str, list[float]] = {side: [] for side in order}
    results: dict[str, object] = {}
    for i in range(repeats):
        for side in order[i % 2:] + order[:i % 2]:
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                results[side] = runs[side]()
                times[side].append(time.perf_counter() - t0)
            finally:
                gc.enable()
        if max(sum(ts) for ts in times.values()) >= limit_s:
            break
    return times, results


def run(doc: str, curves: Callable[[dict], dict], argv=None) -> int:
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the src/ directory of a checkout")
    ap.add_argument("--parent-src", help="the src/ directory of a second checkout, "
                    "measured in the same process as the side 'parent'")
    ap.add_argument("--out", help="JSON file to store the result in")
    ap.add_argument("--side", default="change", help="key of the --src result in --out")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    sides = {args.side: (importlib.import_module("deforest"), src)}
    if args.parent_src:
        if args.side == "parent":
            ap.error("--side parent names the --parent-src side")
        parent = Path(args.parent_src).resolve()
        sides = {"parent": (load_package(parent, PARENT_MODULE), parent), **sides}

    header = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, nproc {os.cpu_count()}",
        "sides_in_run": list(sides),
    }
    result = {side: {**header, **r} for side, r in curves(sides).items()}
    if args.out is None:
        json.dump(result, sys.stdout, indent=1)
        print()
        return 0
    out = Path(args.out)
    stored = json.loads(out.read_text()) if out.exists() else {}
    stored.update(result)
    out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0
