"""Trace overhead gate -- the flight recorder must stay near-free.

The tracer inherits the telemetry registry's contract (the off side is
held by ``tests/test_invariants.py::test_trace_emission_is_guarded``):
one guarded boolean per hot site when tracing is off, a bounded ring
append when on.  This benchmark enforces the "on" side: the mixed trace
is driven through ``SplitDetectIPS.process_batch`` twice per round --
once with the no-op tracer (the library default) and once fully traced
at ``sample=1``, the worst case, with telemetry off in both arms so the
ratio isolates the tracer -- and the best-of-N traced time must stay within
``MAX_OVERHEAD`` of the best-of-N no-op time.

Tracing must also never change detection: the gate cross-checks that
both arms raise identical alerts.  CI runs this in the observability
smoke job; the measured ratio lands in ``BENCH_trace.json``.
"""

import json
import sys
import time
from pathlib import Path

from exp_common import bundled_rules, emit, mixed_trace
from repro.core import SplitDetectIPS
from repro.telemetry import NULL_TRACER, FlowTracer

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Traced wall-clock must stay within this factor of the no-op run.
MAX_OVERHEAD = 1.15

BATCH_SIZE = 256
ROUNDS = 5


def drive_once(rules, trace, tracer):
    """One full trace pass through process_batch; returns (seconds, alerts)."""
    ips = SplitDetectIPS(rules, tracer=tracer)
    alerts = []
    start = time.perf_counter()
    for index in range(0, len(trace), BATCH_SIZE):
        alerts.extend(ips.process_batch(trace[index : index + BATCH_SIZE]))
    return time.perf_counter() - start, alerts


def test_trace_overhead_gate(capfd):
    rules = bundled_rules()
    trace = mixed_trace()
    drive_once(rules, trace, NULL_TRACER)  # warm-up: automaton, allocator
    baseline = float("inf")
    traced = float("inf")
    baseline_alerts = traced_alerts = None
    # Interleave the arms so clock drift and background noise hit both.
    for _ in range(ROUNDS):
        elapsed, baseline_alerts = drive_once(rules, trace, NULL_TRACER)
        baseline = min(baseline, elapsed)
        elapsed, traced_alerts = drive_once(rules, trace, FlowTracer(sample=1))
        traced = min(traced, elapsed)
    ratio = traced / baseline

    # Tracing must be invisible to detection.
    assert traced_alerts == baseline_alerts

    # The traced run must also have recorded real spans -- a gate that
    # passes because the tracer silently no-opped is no gate.
    tracer = FlowTracer(sample=1)
    _, alerts = drive_once(rules, trace, tracer)
    assert tracer.recorded > 0
    events = {span["event"] for span in tracer.spans()}
    assert "fast_route" in events
    if alerts:
        assert "divert" in events or "confirm" in events

    result = {
        "benchmark": "trace_overhead",
        "packets": len(trace),
        "batch_size": BATCH_SIZE,
        "rounds": ROUNDS,
        "sample": 1,
        "spans_recorded": tracer.recorded,
        "noop_best_s": round(baseline, 6),
        "traced_best_s": round(traced, 6),
        "overhead_ratio": round(ratio, 4),
        "max_overhead": MAX_OVERHEAD,
    }
    (REPO_ROOT / "BENCH_trace.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    emit(
        "trace_overhead",
        [
            f"no-op tracer     best of {ROUNDS}: {baseline * 1e3:8.2f} ms",
            f"traced (1/1)     best of {ROUNDS}: {traced * 1e3:8.2f} ms",
            f"spans recorded: {tracer.recorded}",
            f"overhead ratio: {ratio:.3f}x (gate: <= {MAX_OVERHEAD}x)",
        ],
        capfd,
    )
    assert ratio <= MAX_OVERHEAD, (
        f"trace overhead {ratio:.3f}x exceeds the {MAX_OVERHEAD}x budget"
    )


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-x", "-q", "-p", "no:cacheprovider"]))
