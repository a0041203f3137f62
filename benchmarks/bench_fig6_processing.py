"""Figure 6 -- processing cost and the 20 Gbps feasibility argument.

Two parts:

1. Measured byte-flow split: run the mixed trace, record how many bytes
   each path touched, then apply the memory-reference cost model at the
   1M-connection provisioning point.  Shape: the fast path clears
   20 Gbps in fast memory; the conventional design is stuck at DRAM
   speeds; the blend sits near the fast path because diversion is rare.
2. A real software measurement (pytest-benchmark) of the fast path's
   per-byte scan rate, as a sanity anchor for the relative costs.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

from exp_common import bundled_rules, emit, mixed_trace
from repro.core import ConventionalIPS, SplitDetectIPS
from repro.metrics import (
    run_conventional,
    run_split_detect,
    state_bytes_ratio,
    throughput_comparison,
)
from repro.telemetry import TelemetryRegistry

REPO_ROOT = Path(__file__).resolve().parent.parent


def telemetry_section(rules, trace) -> dict:
    """One instrumented (untimed) run, distilled for BENCH_processing.json:
    per-stage latency totals and ns/byte, the anomaly-trigger breakdown,
    and the live state-ratio gauge."""
    tel = TelemetryRegistry()
    ips = SplitDetectIPS(rules, telemetry=tel)
    report = run_split_detect(ips, trace, sample_every=200)
    stage_hist = tel.get("repro_engine_stage_latency_ns")
    bytes_by_path = {
        "fast": tel.get("repro_engine_bytes_total").value_for(path="fast"),
        "slow": tel.get("repro_engine_bytes_total").value_for(path="slow"),
    }
    stage_bytes = {  # denominator each stage's work scales with
        "decode": bytes_by_path["fast"] + bytes_by_path["slow"],
        "fast_path": bytes_by_path["fast"],
        "ac_prescan": bytes_by_path["fast"],
        "slow_path": bytes_by_path["slow"],
    }
    stages = {}
    for labels, child in stage_hist.samples():
        stage = labels["stage"]
        denominator = stage_bytes.get(stage, 0)
        stages[stage] = {
            "observations": child.count,
            "total_ns": child.sum,
            "ns_per_byte": round(child.sum / denominator, 3) if denominator else None,
        }
    anomalies = {
        labels["cause"]: value
        for labels, value in tel.get("repro_fastpath_anomaly_total").samples()
        if value
    }
    return {
        "stage_latency": stages,
        "anomaly_triggers": anomalies,
        "diversion_byte_fraction": round(
            tel.get("repro_engine_diversion_byte_fraction").value, 6
        ),
        "state_bytes_ratio": round(state_bytes_ratio(report), 6),
        "prefilter_skip_rate": round(
            tel.get("repro_match_prefilter_skip_rate").value, 6
        ),
        "journal_events": tel.journal.recorded,
    }


def table_rows() -> list[str]:
    rules = bundled_rules()
    trace = mixed_trace()
    split_ips = SplitDetectIPS(rules)
    split_report = run_split_detect(split_ips, trace, sample_every=200)
    conv_ips = ConventionalIPS(rules)
    conv_report = run_conventional(conv_ips, trace, sample_every=200)
    lines = [
        f"measured byte split: fast={split_report.fast_bytes:,}  "
        f"slow={split_report.slow_bytes:,}  "
        f"({split_report.diversion_byte_fraction:.1%} diverted)",
        "",
        f"{'engine':<22} {'bytes':>12} {'refs/B':>9} {'state':>12} "
        f"{'mem':>5} {'ns/B':>9} {'Gbps':>8}",
    ]
    rows = throughput_comparison(split_report, conv_report)
    lines.extend(row.row() for row in rows)
    by_label = {row.label: row for row in rows}
    ratio = by_label["split-detect fast"].gbps / by_label["conventional"].gbps
    lines.append("")
    lines.append(
        f"fast-path speedup over conventional: {ratio:.1f}x "
        f"(fast path {'>= 20' if by_label['split-detect fast'].gbps >= 20 else '< 20'} Gbps)"
    )
    return lines


def test_fig6_cost_model(benchmark, capfd):
    rules = bundled_rules()
    trace = mixed_trace()

    def measure():
        split_ips = SplitDetectIPS(rules)
        return run_split_detect(split_ips, trace, sample_every=200)

    split_report = benchmark.pedantic(measure, rounds=2, iterations=1)
    conv_report = run_conventional(ConventionalIPS(rules), trace, sample_every=200)
    rows = throughput_comparison(split_report, conv_report)
    by_label = {row.label: row for row in rows}
    assert by_label["split-detect fast"].gbps >= 20.0
    assert by_label["conventional"].gbps < 10.0
    assert by_label["split-detect blended"].gbps > by_label["conventional"].gbps

    # Software anchor: the same trace driven per packet (process(), a
    # one-row batch: encode, then one find_all per payload) vs in
    # batches of 256 through process_batch (one sweep per batch).
    def software_mbps(drive) -> float:
        ips = SplitDetectIPS(rules)
        start = time.perf_counter()
        drive(ips)
        elapsed = time.perf_counter() - start
        bytes_seen = ips.stats.fast_bytes_scanned + ips.stats.slow_bytes_normalized
        return bytes_seen / elapsed / 1e6

    per_packet_mbps = software_mbps(
        lambda ips: [ips.process(p) for p in trace]
    )
    batched_mbps = software_mbps(
        lambda ips: [
            ips.process_batch(trace[i : i + 256]) for i in range(0, len(trace), 256)
        ]
    )
    # The batch form must win: it pays the encode and the sweep once
    # per 256 packets.
    assert batched_mbps > per_packet_mbps, (batched_mbps, per_packet_mbps)
    result = {
        "benchmark": "fig6_processing",
        "byte_split": {
            "fast_bytes": split_report.fast_bytes,
            "slow_bytes": split_report.slow_bytes,
            "diversion_byte_fraction": round(split_report.diversion_byte_fraction, 6),
            "diverted_flows": split_report.diverted_flows,
        },
        "cost_model_rows": [dataclasses.asdict(row) for row in rows],
        "software": {
            "per_packet_mbps": round(per_packet_mbps, 3),
            "batched_mbps": round(batched_mbps, 3),
            "batch_size": 256,
        },
        "telemetry": telemetry_section(rules, trace),
    }
    (REPO_ROOT / "BENCH_processing.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    emit("fig6_processing", table_rows(), capfd)


def test_fig6_software_scan_rate(benchmark, capfd):
    """Anchor: the pure-Python fast-path scan rate over one big payload."""
    from repro.core import FastPath
    from repro.signatures import split_ruleset
    from repro.traffic import benign_payload
    import random

    split = split_ruleset(bundled_rules())
    fast = FastPath(split)
    payload = benign_payload(random.Random(5), 100_000)
    automaton = fast.automaton

    result = benchmark(automaton.find_all, payload)
    with capfd.disabled():
        mean_s = benchmark.stats["mean"]
        rate = len(payload) / mean_s / 1e6
        print(
            f"\nfast-path automaton software scan rate: {rate:.2f} MB/s "
            f"(pure Python reference point)",
            file=sys.stderr,
        )


if __name__ == "__main__":
    print("\n".join(table_rows()), file=sys.stderr)
