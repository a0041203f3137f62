"""Figure 9 (micro) -- matcher engine throughput.

Software scan rates for the matching engines on benign payloads:
Aho-Corasick (compiled dense-table engine vs the sparse reference
oracle) with the full piece set and with a single pattern,
Boyer-Moore-Horspool, and the naive reference.  These anchor the cost
model's "1 reference per scanned byte" abstraction and show BMH's
sublinear skipping on real payloads.

``test_fig9_compiled_vs_reference`` is the acceptance gate for the
compiled engine: it times both engines on the same payloads, requires
byte-identical match output, requires the compiled engine to be at
least as fast on every workload and >= 2x on the full piece set, and
writes the machine-readable comparison to ``BENCH_matchers.json`` at
the repo root (CI's perf smoke job runs exactly this test).  On the
full piece set it also times the batch entry point
(``DualAutomaton.scan_many`` over MTU-sized slices of the same payload):
with numpy the q-gram sweep must make that >= 2x the compiled walk
(ROADMAP item 2's gate) with identical output; without numpy the sweep
is recorded as disabled and only the identity is required.
"""

import json
import random
import sys
import time
from pathlib import Path

from exp_common import bundled_rules, emit
from repro.match import AhoCorasick, BoyerMooreHorspool, DualAutomaton, naive_find_all
from repro.optional_numpy import numpy_available
from repro.signatures import split_ruleset
from repro.traffic import benign_payload

PAYLOAD_SIZE = 65_536
MTU_PAYLOAD = 1_460
PATTERN = b"EVIL-PAYLOAD\x90\x90\x90\x90:exec/bin/sh"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: The compiled engine must beat the reference by this factor on the
#: full piece set (the fast path's production workload).
REQUIRED_SPEEDUP = 2.0

#: ... and the batch q-gram sweep must beat the compiled walk by this
#: factor on the same piece set (ROADMAP item 2's gate).
REQUIRED_SWEEP_SPEEDUP = 2.0


def payload() -> bytes:
    return benign_payload(random.Random(77), PAYLOAD_SIZE)


def rate_of(benchmark_stats, nbytes: int) -> float:
    return nbytes / benchmark_stats["mean"] / 1e6


def best_rate_mbps(fn, data, *, repeats: int = 5, min_rep_s: float = 0.05) -> float:
    """Best-of-N scan rate in MB/s, calibrating the inner loop so each
    repeat runs long enough for the clock to resolve.  ``data`` is one
    buffer or a list of them (a batch)."""
    nbytes = len(data) if isinstance(data, bytes) else sum(map(len, data))
    iterations = 1
    while True:
        start = time.perf_counter()
        for _ in range(iterations):
            fn(data)
        elapsed = time.perf_counter() - start
        if elapsed >= min_rep_s:
            break
        iterations *= 4
    best = elapsed
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(iterations):
            fn(data)
        best = min(best, time.perf_counter() - start)
    return nbytes * iterations / best / 1e6


def pieceset_patterns() -> list[bytes]:
    return [piece.data for piece in split_ruleset(bundled_rules()).all_pieces()]


def test_fig9_compiled_vs_reference(capfd):
    """Acceptance gate: compiled >= reference everywhere, >= 2x on the
    production piece set, byte-identical output.  Emits BENCH_matchers.json."""
    data = payload()
    workloads = [
        ("ac_full_pieceset", pieceset_patterns()),
        ("ac_single_pattern", [PATTERN]),
    ]
    engines = []
    for name, patterns in workloads:
        compiled = AhoCorasick(patterns)
        reference = AhoCorasick(patterns, dense_state_limit=0)
        assert compiled.compiled and not reference.compiled
        # Correctness before speed: identical matches and final state on
        # the benchmark payload and on a payload with planted patterns.
        planted = data[: PAYLOAD_SIZE // 2] + patterns[0] + data[PAYLOAD_SIZE // 2 :]
        for buf in (data, planted, b"", patterns[0]):
            assert compiled.scan(buf) == reference.scan(buf), name
        compiled_mbps = best_rate_mbps(compiled.find_all, data)
        reference_mbps = best_rate_mbps(reference.find_all, data)
        # Work accounting from the engines' own scan counters (covers
        # the correctness probes plus every timing rep).
        scan_stats = {"compiled": compiled.scan_stats(), "reference": reference.scan_stats()}
        swept = {}
        if name == "ac_full_pieceset":
            # The fast path's batch entry point over packet-sized
            # slices; ids line up because every pattern is case-sensitive.
            batch = [data[i : i + MTU_PAYLOAD] for i in range(0, len(data), MTU_PAYLOAD)]
            dual = DualAutomaton([(pattern, False) for pattern in patterns])
            assert dual.scan_many(batch) == [compiled.find_all(piece) for piece in batch]
            swept_mbps = best_rate_mbps(dual.scan_many, batch)
            swept = {
                "sweep": "enabled" if numpy_available() else "disabled",
                "swept_mbps": round(swept_mbps, 3),
                "swept_speedup": round(swept_mbps / compiled_mbps, 3),
            }
        engines.append(
            {
                "workload": name,
                "patterns": len(patterns),
                "states": compiled.state_count,
                "start_bytes": len(compiled.start_bytes),
                "compiled_table_bytes": compiled.compiled_table_bytes(),
                "reference_mbps": round(reference_mbps, 3),
                "compiled_mbps": round(compiled_mbps, 3),
                "speedup": round(compiled_mbps / reference_mbps, 3),
                "identical_output": True,
                **swept,
                "scan_stats": scan_stats,
            }
        )
    result = {
        "benchmark": "fig9_matchers",
        "payload_bytes": PAYLOAD_SIZE,
        "required_speedup_full_pieceset": REQUIRED_SPEEDUP,
        "required_sweep_speedup_full_pieceset": REQUIRED_SWEEP_SPEEDUP,
        "engines": engines,
    }
    (REPO_ROOT / "BENCH_matchers.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        f"{e['workload']:<20} ref={e['reference_mbps']:>9.2f} MB/s  "
        f"compiled={e['compiled_mbps']:>9.2f} MB/s  speedup={e['speedup']:.2f}x"
        + (
            f"  swept={e['swept_mbps']:>9.2f} MB/s ({e['sweep']})"
            if "sweep" in e
            else ""
        )
        for e in engines
    ]
    emit("fig9_compiled_vs_reference", lines, capfd)
    by_name = {e["workload"]: e for e in engines}
    for e in engines:
        assert e["speedup"] >= 1.0, f"{e['workload']}: compiled slower than reference"
    assert by_name["ac_full_pieceset"]["speedup"] >= REQUIRED_SPEEDUP
    if numpy_available():
        assert by_name["ac_full_pieceset"]["swept_speedup"] >= REQUIRED_SWEEP_SPEEDUP


def test_fig9_ac_full_pieceset_compiled(benchmark, capfd):
    automaton = AhoCorasick(pieceset_patterns())
    data = payload()
    benchmark(automaton.find_all, data)
    with capfd.disabled():
        print(
            f"\nAC compiled (full {len(automaton.patterns)}-piece set): "
            f"{rate_of(benchmark.stats, len(data)):.2f} MB/s",
            file=sys.stderr,
        )


def test_fig9_ac_full_pieceset_reference(benchmark, capfd):
    automaton = AhoCorasick(pieceset_patterns(), dense_state_limit=0)
    data = payload()
    benchmark(automaton.find_all, data)
    with capfd.disabled():
        print(
            f"AC reference (full {len(automaton.patterns)}-piece set): "
            f"{rate_of(benchmark.stats, len(data)):.2f} MB/s",
            file=sys.stderr,
        )


def test_fig9_ac_single_pattern(benchmark, capfd):
    automaton = AhoCorasick([PATTERN])
    data = payload()
    benchmark(automaton.find_all, data)
    with capfd.disabled():
        print(
            f"AC compiled (single pattern): {rate_of(benchmark.stats, len(data)):.2f} MB/s",
            file=sys.stderr,
        )


def test_fig9_bmh_single_pattern(benchmark, capfd):
    matcher = BoyerMooreHorspool(PATTERN)
    data = payload()
    benchmark(matcher.find_all, data)
    with capfd.disabled():
        print(
            f"BMH (single pattern): {rate_of(benchmark.stats, len(data)):.2f} MB/s",
            file=sys.stderr,
        )


def test_fig9_naive_single_pattern(benchmark, capfd):
    data = payload()[:8192]  # quadratic reference; keep it small
    benchmark(naive_find_all, PATTERN, data)
    with capfd.disabled():
        print(
            f"naive (single pattern, 8 KiB): "
            f"{rate_of(benchmark.stats, len(data)):.2f} MB/s",
            file=sys.stderr,
        )
    emit(
        "fig9_matchers",
        ["see pytest-benchmark table in bench_output.txt for the timing rows",
         "and BENCH_matchers.json (repo root) for the compiled-vs-reference gate"],
    )
