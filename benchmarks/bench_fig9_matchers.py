"""Figure 9 (micro) -- matcher engine throughput.

Software scan rates for the matching engines on benign payloads:
Aho-Corasick (the product's compiled rows vs the sparse failure walk of
``tests/match_oracle.py``) with the full piece set and with a single
pattern.  These anchor the cost model's "1 reference per scanned byte"
abstraction.

``test_fig9_compiled_vs_reference`` is the acceptance gate for the
compiled engine: it times both engines on the same payloads, requires
byte-identical match output, requires the compiled engine to be at
least as fast on every workload and >= 2x on the full piece set, and
writes the machine-readable comparison to ``BENCH_matchers.json`` at
the repo root (CI's perf smoke job runs exactly this test).  On the
full piece set it also times the batch entry point
(``DualAutomaton.scan_many`` over MTU-sized slices of the same payload):
the q-gram sweep must make that >= 2x the compiled walk (ROADMAP item
2's gate) with identical output, and -- counted, not timed -- the table
walk may step only the sweep's hot rows: every other row's tuples come
from the occurrences the sweep verified.  A last row,
``stream_bundled``, sends the same payload as an MTU-chunked stream
through the slow path (its view of the piece automaton and sweep, with
last-piece confirmation): swept must be >= 2x the never-swept walk,
alerts identical.
"""

import json
import random
import sys
import time
from pathlib import Path
from unittest import mock

from exp_common import bundled_rules, emit
from repro.core import slowpath
from repro.match import AhoCorasick, DualAutomaton
from repro.packet import FlowKey
from repro.signatures import split_ruleset
from repro.traffic import benign_payload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from match_oracle import SparseAutomaton  # noqa: E402

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

#: ... and the slow path's swept stream matcher its never-swept walk.
REQUIRED_STREAM_SWEEP_SPEEDUP = 2.0


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


def slices(data: bytes) -> list[bytes]:
    """``data`` cut into a batch of MTU-sized payloads."""
    return [data[i : i + MTU_PAYLOAD] for i in range(0, len(data), MTU_PAYLOAD)]


def sweep_census(dual: DualAutomaton, batch: list[bytes]) -> dict:
    """Clock-free record of one swept batch: the rows the sweep found
    too candidate-dense (hot), the rows the table walk stepped, and the
    rows whose tuples the sweep answered from its own occurrences."""
    hot, occurrences = dual.sweep.dirty_rows(batch)
    walked: list[bytes] = []
    scan_many = AhoCorasick.scan_many

    def counting_scan_many(self, payloads):
        walked.extend(payloads)
        return scan_many(self, payloads)

    with mock.patch.object(AhoCorasick, "scan_many", counting_scan_many):
        dual.scan_many(batch)
    return {
        "sweep_rows": len(batch),
        "sweep_hot_rows": len(hot),
        "sweep_walked_rows": len(walked),
        "sweep_answered_rows": len({row for row, *_ in occurrences} - set(hot)),
        "walk_stepped_only_hot_rows": walked == [batch[row] for row in hot],
    }


def stream_bundled_row(data: bytes) -> dict:
    """The benign payload as one diverted flow's reassembled stream, in
    MTU chunks, with one bundled signature planted across a chunk
    boundary: the slow path's piece matching swept vs never swept."""
    split_rules = split_ruleset(bundled_rules())
    planted = next(
        sig for sig in bundled_rules() if sig.protocol_number == 6 and len(sig.pattern) > 40
    )
    flow = FlowKey("10.0.0.1", "10.0.0.2", 40000, planted.dst_port or 80)
    cut = 10 * MTU_PAYLOAD - 20
    stream = data[:cut] + planted.pattern + data[cut:]
    chunks = slices(stream)

    rows = [(flow, 0.0)]  # every chunk is one row's, at time 0

    def one_pass(slow):
        alerts = [slow._match(flow, chunk, rows, [0], [len(chunk)]) for chunk in chunks]
        slow.release_flow(flow)
        return alerts

    swept = slowpath.SlowPath(split_rules)
    walked = slowpath.SlowPath(split_rules)
    assert swept._current.sweep is not None
    walked._current.sweep = None
    expected = one_pass(walked)
    assert any(alert.sid == planted.sid for alerts in expected for _, alert in alerts)
    identical = one_pass(swept) == expected
    walked_mbps = best_rate_mbps(lambda _: one_pass(walked), stream)
    swept_mbps = best_rate_mbps(lambda _: one_pass(swept), stream)
    pieces = swept._current.automaton
    sides = [stats for _, stats in pieces.side_stats()]
    skipped = sum(stats["swept_chunks"] for stats in sides)
    return {
        "workload": "stream_bundled",
        "patterns": len(pieces.sweep_patterns()),
        "chunks": len(chunks),
        "sweep": "enabled",
        "walked_mbps": round(walked_mbps, 3),
        "swept_mbps": round(swept_mbps, 3),
        "swept_speedup": round(swept_mbps / walked_mbps, 3),
        "sweep_skip_rate": round(
            skipped / (skipped + sum(stats["walked_chunks"] for stats in sides)), 4
        ),
        "identical_output": identical,
    }


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
        reference = SparseAutomaton(patterns)
        # Correctness before speed: identical matches and final state on
        # the benchmark payload and on a payload with planted patterns.
        planted = data[: PAYLOAD_SIZE // 2] + patterns[0] + data[PAYLOAD_SIZE // 2 :]
        for buf in (data, planted, b"", patterns[0]):
            assert compiled.scan(buf) == reference.scan(buf), name
        # Work accounting from the engines' own scan counters, read
        # before timing: how many reps the timing loop runs follows the
        # machine's speed, and these counts are gated as exact work.
        scan_stats = {"compiled": compiled.scan_stats(), "reference": reference.scan_stats()}
        compiled_mbps = best_rate_mbps(compiled.find_all, data)
        reference_mbps = best_rate_mbps(reference.find_all, data)
        swept = {}
        if name == "ac_full_pieceset":
            # The fast path's batch entry point over packet-sized
            # slices; ids line up because every pattern is case-sensitive.
            batch = slices(data)
            dual = DualAutomaton([(pattern, False) for pattern in patterns])
            for sliced in (batch, slices(planted)):
                assert dual.scan_many(sliced) == [compiled.find_all(p) for p in sliced]
            swept_mbps = best_rate_mbps(dual.scan_many, batch)
            swept = {
                "sweep": "enabled",
                "swept_mbps": round(swept_mbps, 3),
                "swept_speedup": round(swept_mbps / compiled_mbps, 3),
                # Counted on the slices of the planted payload, so the
                # sweep has an occurrence to answer.
                **sweep_census(dual, slices(planted)),
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
    stream = stream_bundled_row(data)
    engines.append(stream)
    result = {
        "benchmark": "fig9_matchers",
        "payload_bytes": PAYLOAD_SIZE,
        "required_speedup_full_pieceset": REQUIRED_SPEEDUP,
        "required_sweep_speedup_full_pieceset": REQUIRED_SWEEP_SPEEDUP,
        "required_stream_sweep_speedup": REQUIRED_STREAM_SWEEP_SPEEDUP,
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
        for e in engines[:-1]
    ] + [
        f"{stream['workload']:<20} walked={stream['walked_mbps']:>6.2f} MB/s  "
        f"swept={stream['swept_mbps']:>9.2f} MB/s ({stream['sweep']})  "
        f"skip rate={stream['sweep_skip_rate']:.3f}"
    ]
    emit("fig9_compiled_vs_reference", lines, capfd)
    by_name = {e["workload"]: e for e in engines}
    for e in engines[:-1]:
        assert e["speedup"] >= 1.0, f"{e['workload']}: compiled slower than reference"
    assert by_name["ac_full_pieceset"]["speedup"] >= REQUIRED_SPEEDUP
    assert stream["identical_output"]
    assert by_name["ac_full_pieceset"]["swept_speedup"] >= REQUIRED_SWEEP_SPEEDUP
    assert by_name["ac_full_pieceset"]["walk_stepped_only_hot_rows"]
    assert stream["swept_speedup"] >= REQUIRED_STREAM_SWEEP_SPEEDUP


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
    automaton = SparseAutomaton(pieceset_patterns())
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
    emit(
        "fig9_matchers",
        ["see pytest-benchmark table in bench_output.txt for the timing rows",
         "and BENCH_matchers.json (repo root) for the compiled-vs-reference gate"],
    )
