"""Parse time against build time on the corpus texts, and parse time as the
text grows.

    python3 scripts/parse_curve.py --src src --out BENCH_parse.json --side change

The corpus texts are those of the benchmark's `corpus` workload: the 11
fixtures and the GENERATED programs of the test suite's generator (seed
PROGRAM_SEED), printed.  For each text it records the number of tokens, the
median parse time and the median build time (parse, supercompile and print)
over REPEATS runs, in ms.  The size curve parses the first n of
SIZE_PROGRAMS generated programs (seed SIZE_SEED), each with its function
names suffixed so that they do not clash, concatenated into one text.  The
texts come from this checkout's `tests/conftest.py`, whatever checkout
`--src` names.  The flags `--src`, `--parent-src`, `--out` and `--side` are
those of `curve_harness.run`; with `--parent-src` the sides take turns at
every measurement (`curve_harness.alternate`), with the collector off inside
each run.
"""

from __future__ import annotations

import re
import statistics
import sys
from functools import partial
from pathlib import Path

from curve_harness import alternate, run

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 11
GENERATED = 150
PROGRAM_SEED = 20240809
SIZE_PROGRAMS = (1, 4, 16, 64, 256, 1024)
SIZE_SEED = 7


def parse(api, text: str) -> None:
    api.parse_program(text)


def build(api, text: str) -> None:
    api.pretty_program(api.supercompile(api.parse_program(text)))


def median_ms(sides: dict, fn, text: str) -> dict[str, float]:
    """Each side's median time of fn(api, text) over REPEATS calls, in ms."""
    times, _ = alternate({side: partial(fn, api, text) for side, (api, _) in sides.items()}, REPEATS)
    return {side: statistics.median(ts) * 1e3 for side, ts in times.items()}


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


def corpus(sides: dict, texts: list[tuple[str, str]]) -> dict[str, dict]:
    rows: dict[str, list[dict]] = {side: [] for side in sides}
    for name, text in texts:
        parse_ms, build_ms = median_ms(sides, parse, text), median_ms(sides, build, text)
        for side, (api, _) in sides.items():
            rows[side].append({
                "name": name,
                "chars": len(text),
                "tokens": len(api.parser.tokenize(text)),
                "parse_ms": parse_ms[side],
                "build_ms": build_ms[side],
            })
    out = {}
    for side, rs in rows.items():
        parse_sum = sum(r["parse_ms"] for r in rs)
        total = sum(r["build_ms"] for r in rs)
        print(f"{side} corpus: parse {parse_sum:.1f} ms of build {total:.1f} ms", file=sys.stderr)
        out[side] = {
            "parse_ms_sum": parse_sum,
            "build_ms_sum": total,
            "parse_share": parse_sum / total,
            "parse_ms_p50": statistics.median(r["parse_ms"] for r in rs),
            "build_ms_p50": statistics.median(r["build_ms"] for r in rs),
            "programs": rs,
        }
    return out


def sizes(sides: dict, texts: list[str]) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = {side: [] for side in sides}
    for n in SIZE_PROGRAMS:
        text = "".join(texts[:n])
        parse_ms = median_ms(sides, parse, text)
        for side, (api, _) in sides.items():
            rows[side].append({
                "programs": n,
                "chars": len(text),
                "tokens": len(api.parser.tokenize(text)),
                "parse_ms": parse_ms[side],
            })
            print(f"{side} {n} programs: {parse_ms[side]:.2f} ms", file=sys.stderr)
    return rows


def curves(sides: dict) -> dict:
    sys.path.insert(1, str(ROOT / "tests"))
    import conftest
    from deforest import pretty_program  # the --src package, which conftest builds with

    texts, programs = corpus_texts(conftest, pretty_program), size_texts(conftest, pretty_program)
    by_text, by_size = corpus(sides, texts), sizes(sides, programs)
    return {
        side: {"repeats": REPEATS, "corpus": by_text[side], "sizes": by_size[side]}
        for side in sides
    }


def main(argv=None) -> int:
    return run(__doc__, curves, argv)


if __name__ == "__main__":
    sys.exit(main())
