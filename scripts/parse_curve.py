"""Parse time against build time on the corpus texts, and parse time as the
text grows.

    python3 scripts/parse_curve.py --src src --out BENCH_parse.json --side change

The corpus texts are those of the benchmark's `corpus` workload: the 11
fixtures and the GENERATED programs of the test suite's generator (seed
PROGRAM_SEED), printed.  For each text it records the number of tokens, the
median parse time and the median build time (parse, supercompile and print)
over REPEATS runs, in ms.  The size curve parses the first n of SIZE_PROGRAMS
generated programs (seed SIZE_SEED), each with its function names suffixed
so that they do not clash, concatenated into one text.  The texts come from
this checkout's `tests/conftest.py`, whatever checkout `--src` names.  The
flags `--src`, `--parent-src`, `--out` and `--side` are those of
`curve_harness.run`; with `--parent-src` the sides are measured one after the
other, not in turns.
"""

from __future__ import annotations

import re
import statistics
import sys
import time
from pathlib import Path

from curve_harness import run

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 11
GENERATED = 150
PROGRAM_SEED = 20240809
SIZE_PROGRAMS = (1, 4, 16, 64, 256, 1024)
SIZE_SEED = 7


def median_ms(fn, text: str) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(text)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def corpus_texts(conftest, pretty_program) -> list[tuple[str, str]]:
    texts = [
        (name, (conftest.FIXTURES / f"{name}.core").read_text())
        for name in conftest.FIXTURE_NAMES
    ]
    programs = conftest.generate_programs(GENERATED, seed=PROGRAM_SEED)
    texts += [(f"gen{i}", pretty_program(p)) for i, p in enumerate(programs)]
    return texts


def size_texts(conftest, pretty_program) -> list[str]:
    programs = conftest.generate_programs(max(SIZE_PROGRAMS), seed=SIZE_SEED)
    # function names are f0..f4 and main; no variable is named like them
    return [
        re.sub(r"\b(f\d|main)\b", rf"\1_{i}", pretty_program(p))
        for i, p in enumerate(programs)
    ]


def corpus(api, texts: list[tuple[str, str]]) -> dict:
    def build(text):
        api.pretty_program(api.supercompile(api.parse_program(text)))

    rows = []
    for name, text in texts:
        rows.append({
            "name": name,
            "chars": len(text),
            "tokens": len(api.parser.tokenize(text)),
            "parse_ms": median_ms(api.parse_program, text),
            "build_ms": median_ms(build, text),
        })
    parse = sum(r["parse_ms"] for r in rows)
    total = sum(r["build_ms"] for r in rows)
    print(f"corpus: parse {parse:.1f} ms of build {total:.1f} ms", file=sys.stderr)
    return {
        "parse_ms_sum": parse,
        "build_ms_sum": total,
        "parse_share": parse / total,
        "parse_ms_p50": statistics.median(r["parse_ms"] for r in rows),
        "build_ms_p50": statistics.median(r["build_ms"] for r in rows),
        "programs": rows,
    }


def sizes(api, texts: list[str]) -> list[dict]:
    rows = []
    for n in SIZE_PROGRAMS:
        text = "".join(texts[:n])
        rows.append({
            "programs": n,
            "chars": len(text),
            "tokens": len(api.parser.tokenize(text)),
            "parse_ms": median_ms(api.parse_program, text),
        })
        print(f"{n} programs: {rows[-1]['parse_ms']:.2f} ms", file=sys.stderr)
    return rows


def curves(sides: dict) -> dict:
    sys.path.insert(1, str(ROOT / "tests"))
    import conftest
    from deforest import pretty_program  # the --src package, which conftest builds with

    texts, programs = corpus_texts(conftest, pretty_program), size_texts(conftest, pretty_program)
    return {
        side: {
            "repeats": REPEATS,
            "corpus": corpus(api, texts),
            "sizes": sizes(api, programs),
        }
        for side, (api, _) in sides.items()
    }


def main(argv=None) -> int:
    return run(__doc__, curves, argv)


if __name__ == "__main__":
    sys.exit(main())
