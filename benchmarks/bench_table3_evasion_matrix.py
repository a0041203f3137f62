"""Table 3 -- detection coverage across the full evasion catalog.

Every FragRoute / Ptacek-Newsham strategy versus three engines.  Shape to
reproduce: Split-Detect and the conventional IPS detect 100% of delivered
attacks; the naive per-packet matcher misses exactly the strategies that
hide the signature from single-packet inspection.  Split-Detect has one
route, the encoded batch route the CLI and runners take; it is scored
through ``process()`` (a batch of one) and through ``process_batch`` at
batch sizes 1 and 7.
"""

import sys

from exp_common import (
    ATTACK_SIGNATURE,
    attack_packets,
    detected,
    emit,
    gauntlet_ruleset,
    run_batches,
    run_engine,
)
from repro.core import ConventionalIPS, NaivePacketIPS, SplitDetectIPS
from repro.evasion import STRATEGIES, Victim


def matrix_rows() -> tuple[list[str], dict]:
    lines = [
        f"{'strategy':<18} {'delivered':>9} {'naive':>6} {'conventional':>12} "
        f"{'split-detect':>12} {'split(batch)':>12}"
    ]
    summary = {
        "split_hits": 0,
        "split_batch_hits": 0,
        "conv_hits": 0,
        "naive_misses": 0,
        "delivered": 0,
    }
    for name in sorted(STRATEGIES):
        strategy = STRATEGIES[name]
        packets = attack_packets(name)
        victim = Victim(
            policy=strategy.victim_policy, hops_behind_ips=strategy.victim_hops
        )
        victim.deliver_all(packets)
        delivered = victim.received(ATTACK_SIGNATURE)

        naive_hit = detected(run_engine(NaivePacketIPS(gauntlet_ruleset()), packets))
        conv_hit = detected(run_engine(ConventionalIPS(gauntlet_ruleset()), packets))
        split_hit = detected(run_engine(SplitDetectIPS(gauntlet_ruleset()), packets))
        batch_hit = all(
            detected(run_batches(SplitDetectIPS(gauntlet_ruleset()), packets, size))
            for size in (1, 7)
        )
        summary["delivered"] += delivered
        summary["split_hits"] += split_hit
        summary["split_batch_hits"] += batch_hit
        summary["conv_hits"] += conv_hit
        summary["naive_misses"] += not naive_hit
        lines.append(
            f"{name:<18} {'yes' if delivered else 'NO':>9} "
            f"{'HIT' if naive_hit else 'miss':>6} "
            f"{'HIT' if conv_hit else 'miss':>12} "
            f"{'HIT' if split_hit else 'miss':>12} "
            f"{'HIT' if batch_hit else 'miss':>12}"
        )
    total = len(STRATEGIES)
    lines.append("")
    lines.append(
        f"split-detect {summary['split_hits']}/{total} "
        f"(batch route {summary['split_batch_hits']}/{total}), "
        f"conventional {summary['conv_hits']}/{total}, "
        f"naive evaded by {summary['naive_misses']}/{total}"
    )
    return lines, summary


def test_table3_evasion_matrix(benchmark, capfd):
    def full_split_detect_gauntlet():
        hits = 0
        for name in sorted(STRATEGIES):
            packets = attack_packets(name)
            hits += detected(run_engine(SplitDetectIPS(gauntlet_ruleset()), packets))
        return hits

    hits = benchmark.pedantic(full_split_detect_gauntlet, rounds=2, iterations=1)
    assert hits == len(STRATEGIES)
    lines, summary = matrix_rows()
    emit("table3_evasion_matrix", lines, capfd)
    assert summary["delivered"] == len(STRATEGIES)
    assert summary["split_hits"] == len(STRATEGIES)
    assert summary["split_batch_hits"] == len(STRATEGIES)
    assert summary["conv_hits"] == len(STRATEGIES)
    assert summary["naive_misses"] >= 5  # the segmentation/fragmentation class


if __name__ == "__main__":
    print("\n".join(matrix_rows()[0]), file=sys.stderr)
