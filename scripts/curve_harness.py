"""The command line that the curve scripts share.

    python3 scripts/<name>_curve.py --src src --out BENCH_<name>.json --side change

`run` parses `--src`, `--out` and `--side`, imports the deforest package
from `--src` (the `src/` directory of any checkout, so that two versions can
be measured with one script), and passes it and that directory to the
script's `curves`.  The result is the keys that `curves` returns, after the
Python version and the machine.  With `--out`, it is stored under the
`--side` key of that JSON file, keeping the other keys, so that
`{"parent": ..., "change": ...}` can be written by two runs; without `--out`
it goes to standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Callable


def run(doc: str, curves: Callable[[object, Path], dict], argv=None) -> int:
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the src/ directory of a checkout")
    ap.add_argument("--out", help="JSON file to store the result in")
    ap.add_argument("--side", default="change", help="key of the result in --out")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    api = importlib.import_module("deforest")

    result = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}, nproc {os.cpu_count()}",
        **curves(api, src),
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
