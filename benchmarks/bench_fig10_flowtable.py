"""Figure 10 (extension) -- sizing the fixed fast-path flow table.

The paper's state argument assumes the fast path's 24-byte records live
in a fixed SRAM table.  This sweep asks the hardware designer's question:
how small can the table get before evictions degrade the monitor?
Detection of the catalog attack is asserted at *every* size (piece
matching is stateless), so the quantity that degrades is only the
eviction rate -- the fraction of packets whose flow lost its
expected-sequence context.
"""

import sys

from exp_common import (
    ATTACK_OFFSET,
    ATTACK_SIGNATURE,
    benign_trace,
    detected,
    emit,
    gauntlet_payload,
)
from repro.core import FastPathConfig, SplitDetectIPS
from repro.evasion import build_attack
from repro.signatures import RuleSet, Signature, load_bundled_rules
from repro.traffic import inject_attacks

TABLE_SIZES = ((16, 2), (64, 2), (256, 4), (1024, 4), (4096, 4))
BENIGN_FLOWS = 250


def ruleset() -> RuleSet:
    rules = load_bundled_rules()
    rules.add(Signature(sid=3001, pattern=ATTACK_SIGNATURE, msg="gauntlet target"))
    return rules


def mixed():
    # High flow-arrival rate -> tens of concurrent flows, so the smaller
    # tables actually experience replacement pressure.
    trace = benign_trace(flows=BENIGN_FLOWS, seed=43, mean_interarrival=0.0005)
    attack = build_attack(
        "tcp_seg_8",
        gauntlet_payload(),
        signature_span=(ATTACK_OFFSET, len(ATTACK_SIGNATURE)),
        src="10.66.0.1",
    )
    return inject_attacks(trace, [attack])


def series_rows() -> list[str]:
    rules = ruleset()
    trace = mixed()
    lines = [
        f"{'buckets x ways':>14} {'capacity':>9} {'state KiB':>10} "
        f"{'evictions':>10} {'evict/pkt':>10} {'attack':>7}"
    ]
    for buckets, ways in TABLE_SIZES:
        config = FastPathConfig(state_backend="table", table_buckets=buckets, table_ways=ways)
        ips = SplitDetectIPS(rules, fast_config=config)
        alerts = []
        for packet in trace:
            alerts.extend(ips.process(packet))
        caught = detected(alerts)
        evictions = ips.fast_path.table_evictions
        packets = ips.stats.fast_packets
        lines.append(
            f"{f'{buckets}x{ways}':>14} {buckets * ways:>9} "
            f"{ips.fast_path.state_bytes() / 1024:>10.1f} {evictions:>10} "
            f"{evictions / max(packets, 1):>10.3f} {'HIT' if caught else 'MISS':>7}"
        )
    return lines


def test_fig10_flowtable_sizing(benchmark, capfd):
    rules = ruleset()
    trace = mixed()

    def run_smallest():
        config = FastPathConfig(state_backend="table", table_buckets=16, table_ways=2)
        ips = SplitDetectIPS(rules, fast_config=config)
        alerts = []
        for packet in trace:
            alerts.extend(ips.process(packet))
        return ips, alerts

    ips, alerts = benchmark.pedantic(run_smallest, rounds=2, iterations=1)
    assert detected(alerts)  # stateless piece matching survives any table
    assert ips.fast_path.table_evictions > 0
    emit("fig10_flowtable", series_rows(), capfd)


if __name__ == "__main__":
    print("\n".join(series_rows()), file=sys.stderr)
