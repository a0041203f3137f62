"""Figure 5 -- the piece-length trade-off.

Short pieces make more signatures splittable and keep B small, but they
fire on benign bytes and inflate the automaton.  Since R5 checks a piece
hit against its signature around it, a benign hit costs the fast path a
compare, not a diversion: ``cmp/MB`` is
``repro_fastpath_piece_hits_total{verdict="out_of_context"}`` per MiB of
fast-path payload.  Long pieces are rarer but push B up (more tiny-
segment diversion) and shed short signatures.  The sweep shows both
sides, measured on benign traffic and predicted by the n-gram model.
"""

import sys

from exp_common import benign_trace, bundled_rules, emit
from repro.core import DivertReason, SplitDetectIPS
from repro.metrics import run_split_detect
from repro.signatures import ByteFrequencyModel, SplitPolicy, split_ruleset
from repro.telemetry import TelemetryRegistry
from repro.traffic import benign_payload

PIECE_LENGTHS = (4, 6, 8, 10, 12, 16)


def trained_model() -> ByteFrequencyModel:
    import random

    model = ByteFrequencyModel()
    rng = random.Random(99)
    for _ in range(50):
        model.train(benign_payload(rng, 4000))
    return model


def compares_per_mb(rules, trace, policy: SplitPolicy, model=None):
    """(out-of-context piece hits per MiB of fast-path payload, the run's report)."""
    ips = SplitDetectIPS(rules, split_policy=policy, model=model, telemetry=TelemetryRegistry())
    report = run_split_detect(ips, trace, sample_every=500)
    hits = ips.telemetry_snapshot()["counters"]["repro_fastpath_piece_hits_total"]["values"]
    compares = sum(v["value"] for v in hits if v["labels"] == {"verdict": "out_of_context"})
    return compares / (report.fast_bytes / 2**20), report


def series_rows() -> list[str]:
    rules = bundled_rules()
    trace = benign_trace(flows=250, seed=41)
    model = trained_model()
    lines = [
        f"{'p':>4} {'B':>4} {'pieces':>7} {'unsplit':>8} "
        f"{'cmp/MB':>8} {'piece-div%':>10} {'tiny-div%':>10} {'pred FP/MB':>11} "
        f"{'skip cmp/MB':>11}"
    ]
    for p in PIECE_LENGTHS:
        policy = SplitPolicy(piece_length=p)
        split = split_ruleset(rules, policy)
        compares, report = compares_per_mb(rules, trace, policy)
        piece_div = report.divert_reasons.get(DivertReason.PIECE_MATCH.value, 0)
        tiny_div = report.divert_reasons.get(DivertReason.TINY_SEGMENT.value, 0)
        predicted = sum(
            model.expected_matches(piece.data, 2**20) for piece in split.all_pieces()
        )
        # The rarity-aware variant: skip benign-looking pattern prefixes.
        skip_policy = SplitPolicy(piece_length=p, skip_common_prefix=True)
        skip_compares, _ = compares_per_mb(rules, trace, skip_policy, model)
        lines.append(
            f"{p:>4} {split.small_packet_threshold:>4} {split.piece_count:>7} "
            f"{len(split.unsplittable):>8} {compares:>8.1f} {piece_div / 250:>10.1%} "
            f"{tiny_div / 250:>10.1%} {predicted:>11.2f} {skip_compares:>11.1f}"
        )
    return lines


def test_fig5_piece_length_tradeoff(benchmark, capfd):
    rules = bundled_rules()
    trace = benign_trace(flows=250, seed=41)

    def one_point():
        ips = SplitDetectIPS(rules, split_policy=SplitPolicy(piece_length=8))
        return run_split_detect(ips, trace, sample_every=500)

    benchmark.pedantic(one_point, rounds=2, iterations=1)
    rows = series_rows()
    emit("fig5_piece_length", rows, capfd)


def test_fig5_model_prefers_longer_pieces():
    """Longer pieces must be predicted (and measured) rarer."""
    rules = bundled_rules()
    model = trained_model()
    predictions = []
    for p in (4, 8, 16):
        split = split_ruleset(rules, SplitPolicy(piece_length=p))
        predictions.append(
            sum(model.expected_matches(piece.data, 2**20) for piece in split.all_pieces())
        )
    assert predictions[0] > predictions[1] > predictions[2]


if __name__ == "__main__":
    print("\n".join(series_rows()), file=sys.stderr)
