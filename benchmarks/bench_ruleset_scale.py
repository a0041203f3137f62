"""Ruleset scale -- the piece automaton compiles to one form at every size.

A deployed rule set is 10-30x the bundled 351 signatures.  This builds
the fast path's piece automaton for ``synthesize_corpus`` at 8 / 40 /
100 / 250 families (families=8 is the bundled corpus) and reports, per
size:

- states and ``compiled_table_bytes`` (every row container);
- compile seconds and the VmRSS the compiled set adds;
- walk ns/B (``DualAutomaton.find_all``, the table walk the sweep hands
  rows to) on benign MTU rows and on candidate-dense rows made of
  pattern prefixes, which walk deep states;
- that every side compiled: one row per state, the root a full row.

It asserts no size falls back to anything but rows and that the
families=100 set (20,176 states, past the old 16,384-state ceiling of
the dense form) stays within ``MAX_TABLE_BYTES_AT_100``.  Rows land in
``benchmarks/results/ruleset_scale.txt``.  Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_ruleset_scale.py
"""

import random
import sys
import time
from pathlib import Path

from exp_common import emit
from repro.core import FastPathConfig
from repro.core.fastpath import compile_pieces
from repro.match import ROOT_STATE
from repro.signatures import split_ruleset, synthesize_corpus
from repro.traffic import benign_payload

FAMILIES = (8, 40, 100, 250)

#: Ceiling on both sides' table bytes at families=100.
MAX_TABLE_BYTES_AT_100 = 16 * 2**20

MTU_PAYLOAD = 1_460
ROWS = 48


def vmrss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmRSS line")


def walk_ns_per_byte(automaton, rows: list[bytes], repeats: int = 5) -> float:
    """Best of ``repeats`` passes of ``find_all`` over ``rows``."""
    find_all = automaton.find_all
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for row in rows:
            find_all(row)
        best = min(best, time.perf_counter_ns() - start)
    return best / sum(map(len, rows))


def dense_rows(patterns: list[bytes], rng: random.Random) -> list[bytes]:
    """MTU rows of 8-byte pattern prefixes: every position a candidate,
    and the walk steps through the states those prefixes reach."""
    prefixes = [pattern[:8] for pattern in patterns if len(pattern) >= 8]
    rows = []
    for _ in range(ROWS):
        row = b"".join(rng.choice(prefixes) for _ in range(MTU_PAYLOAD // 8 + 1))
        rows.append(row[:MTU_PAYLOAD])
    return rows


def measure(families: int, keep: list) -> dict:
    rules = synthesize_corpus(families=families)
    split = split_ruleset(rules)
    before = vmrss_kb()
    start = time.perf_counter()
    _, _, automaton = compile_pieces(split, FastPathConfig())
    compile_s = time.perf_counter() - start
    keep.append(automaton)  # held, so a later size cannot reuse its pages
    rss_mb = (vmrss_kb() - before) / 1024
    sides = [side for side, *_ in automaton.sides]
    rng = random.Random(families)
    benign = [benign_payload(rng, MTU_PAYLOAD) for _ in range(ROWS)]
    dense = dense_rows(list(sides[0].patterns), rng)
    return {
        "families": families,
        "signatures": len(rules),
        "states": sum(side.state_count for side in sides),
        "table_bytes": sum(side.compiled_table_bytes() for side in sides),
        "compile_s": compile_s,
        "rss_mb": rss_mb,
        "benign_ns_per_byte": walk_ns_per_byte(automaton, benign),
        "dense_ns_per_byte": walk_ns_per_byte(automaton, dense),
        "compiled": all(
            len(side._rows) == side.state_count
            and type(side._rows[ROOT_STATE]) is list
            and len(side._rows[ROOT_STATE]) == 258
            for side in sides
        ),
    }


def run_ruleset_scale() -> list[dict]:
    keep: list = []
    return [measure(families, keep) for families in FAMILIES]


def check_and_emit(results: list[dict], capfd=None) -> None:
    lines = [
        f"{'families':>8} {'sigs':>6} {'states':>7} {'table MB':>9} {'compile s':>9} "
        f"{'+RSS MB':>8} {'benign ns/B':>11} {'dense ns/B':>10} compiled"
    ] + [
        f"{r['families']:>8} {r['signatures']:>6} {r['states']:>7} "
        f"{r['table_bytes'] / 2**20:>9.2f} {r['compile_s']:>9.3f} {r['rss_mb']:>8.1f} "
        f"{r['benign_ns_per_byte']:>11.1f} {r['dense_ns_per_byte']:>10.1f} {r['compiled']}"
        for r in results
    ]
    emit("ruleset_scale", lines, capfd)
    assert all(r["compiled"] for r in results), "an automaton fell back from rows"
    (at_100,) = [r for r in results if r["families"] == 100]
    assert at_100["states"] > 16_384
    assert at_100["table_bytes"] <= MAX_TABLE_BYTES_AT_100, at_100["table_bytes"]


def test_ruleset_scale(capfd):
    """Every size compiles; families=100 within its table-byte ceiling."""
    check_and_emit(run_ruleset_scale(), capfd)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    check_and_emit(run_ruleset_scale())
