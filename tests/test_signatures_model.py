"""Tests for the signature model and rule parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.signatures import (
    Piece,
    RuleParseError,
    RuleSet,
    Signature,
    SplitSignature,
    decode_content,
    dump_rules,
    encode_content,
    format_rule,
    parse_rule,
    parse_rules,
)


class TestSignature:
    def test_basic(self):
        sig = Signature(sid=1, pattern=b"attack", msg="test", dst_port=80)
        assert len(sig) == 6
        assert sig.applies_to_port(80)
        assert not sig.applies_to_port(443)

    def test_any_port(self):
        sig = Signature(sid=1, pattern=b"attack")
        assert sig.applies_to_port(80) and sig.applies_to_port(12345)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            Signature(sid=1, pattern=b"")

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            Signature(sid=1, pattern=b"x", dst_port=99999)


class TestPieceAndSplit:
    def sig(self):
        return Signature(sid=9, pattern=b"ABCDEFGHIJKLMNOPQRSTUVWX")  # 24 bytes

    def test_piece_offset_validated(self):
        sig = self.sig()
        Piece(signature=sig, index=0, offset=4, data=b"EFGH")
        with pytest.raises(ValueError):
            Piece(signature=sig, index=0, offset=4, data=b"WRONG")

    def make_split(self, bounds, p=8):
        sig = self.sig()
        pieces = tuple(
            Piece(signature=sig, index=i, offset=bounds[i],
                  data=sig.pattern[bounds[i]:bounds[i + 1]])
            for i in range(len(bounds) - 1)
        )
        return SplitSignature(signature=sig, pieces=pieces, piece_length=p)

    def test_valid_split(self):
        split = self.make_split([0, 8, 16, 24])
        assert split.k == 3
        assert split.small_packet_threshold == 16

    def test_fewer_than_three_pieces_rejected(self):
        with pytest.raises(ValueError):
            self.make_split([0, 12, 24])

    def test_gap_rejected(self):
        sig = self.sig()
        pieces = (
            Piece(signature=sig, index=0, offset=0, data=sig.pattern[0:8]),
            Piece(signature=sig, index=1, offset=9, data=sig.pattern[9:17]),
            Piece(signature=sig, index=2, offset=17, data=sig.pattern[17:24]),
        )
        with pytest.raises(ValueError):
            SplitSignature(signature=sig, pieces=pieces, piece_length=7)

    def test_short_piece_rejected(self):
        with pytest.raises(ValueError):
            self.make_split([0, 8, 16, 20, 24])  # 4-byte pieces below p=8

    @staticmethod
    def pieces_of(sig, bounds):
        return tuple(
            Piece(signature=sig, index=i, offset=bounds[i],
                  data=sig.pattern[bounds[i]:bounds[i + 1]])
            for i in range(len(bounds) - 1)
        )

    def test_fewer_pieces_than_the_theorem_counts_rejected(self):
        from repro.theory import find_evading_boundaries

        # 36 bytes at p=4 is k = 9 pieces.  Three 12-byte pieces satisfy
        # every other invariant, yet boundaries B = 8 apart cut them all.
        sig = Signature(sid=9, pattern=bytes(range(65, 101)))
        pieces = self.pieces_of(sig, [0, 12, 24, 36])
        unchecked = SplitSignature.__new__(SplitSignature)
        for name, value in (("signature", sig), ("pieces", pieces), ("piece_length", 4)):
            object.__setattr__(unchecked, name, value)
        assert find_evading_boundaries(unchecked) == [1, 13, 25]
        with pytest.raises(ValueError, match="k = 36 // p=4 = 9"):
            SplitSignature(signature=sig, pieces=pieces, piece_length=4)

    def test_pieces_short_of_the_pattern_end_rejected(self):
        sig = Signature(sid=9, pattern=bytes(range(65, 91)))  # 26 bytes, k = 3 at p=8
        with pytest.raises(ValueError, match="not at the pattern end 26"):
            SplitSignature(signature=sig, pieces=self.pieces_of(sig, [0, 8, 16, 24]), piece_length=8)


class TestRuleSet:
    def test_by_sid(self):
        rules = RuleSet()
        rules.add(Signature(sid=5, pattern=b"five"))
        assert rules.by_sid(5).pattern == b"five"
        with pytest.raises(KeyError):
            rules.by_sid(6)

    def test_length_histogram(self):
        rules = RuleSet()
        rules.add(Signature(sid=1, pattern=b"aaaa"))
        rules.add(Signature(sid=2, pattern=b"bbbb"))
        rules.add(Signature(sid=3, pattern=b"cc"))
        assert rules.length_histogram() == {2: 1, 4: 2}


class TestContentCodec:
    def test_plain_text(self):
        assert decode_content("cmd.exe") == b"cmd.exe"

    def test_hex_block(self):
        assert decode_content("|41 42|C") == b"ABC"

    def test_hex_block_no_spaces(self):
        assert decode_content("|4142|") == b"AB"

    def test_escapes(self):
        assert decode_content(r"a\|b\"c\\d") == b'a|b"c\\d'

    def test_unterminated_hex_rejected(self):
        with pytest.raises(ValueError):
            decode_content("|41")

    def test_odd_hex_rejected(self):
        with pytest.raises(ValueError):
            decode_content("|414|")

    def test_encode_printable(self):
        assert encode_content(b"cmd.exe") == "cmd.exe"

    def test_encode_binary(self):
        assert encode_content(b"\x90\x90A") == "|90 90|A"

    @given(st.binary(min_size=1, max_size=64))
    def test_codec_round_trip(self, pattern):
        assert decode_content(encode_content(pattern)) == pattern


class TestRuleParsing:
    LINE = 'alert tcp any any -> any 80 (msg:"WEB-IIS cmd.exe access"; content:"cmd.exe"; sid:1002;)'

    def test_parse_basic(self):
        sig = parse_rule(self.LINE)
        assert sig.sid == 1002
        assert sig.pattern == b"cmd.exe"
        assert sig.dst_port == 80
        assert sig.msg == "WEB-IIS cmd.exe access"

    def test_parse_any_port(self):
        sig = parse_rule('alert tcp any any -> any any (msg:"m"; content:"x"; sid:1;)')
        assert sig.dst_port is None

    def test_semicolon_inside_content(self):
        sig = parse_rule('alert tcp any any -> any 80 (msg:"m"; content:"a;b"; sid:1;)')
        assert sig.pattern == b"a;b"

    def test_multiple_contents_keeps_longest(self):
        sig = parse_rule(
            'alert tcp any any -> any 80 (msg:"m"; content:"ab"; content:"abcdef"; sid:1;)'
        )
        assert sig.pattern == b"abcdef"

    def test_missing_sid_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert tcp any any -> any 80 (msg:"m"; content:"x";)')

    def test_missing_content_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert tcp any any -> any 80 (msg:"m"; sid:1;)')

    def test_udp_rule_parses_with_protocol(self):
        sig = parse_rule('alert udp any any -> any 53 (msg:"m"; content:"x"; sid:1;)')
        assert sig.protocol == "udp"
        assert sig.protocol_number == 17
        assert sig.dst_port == 53

    def test_icmp_rule_rejected(self):
        with pytest.raises(RuleParseError):
            parse_rule('alert icmp any any -> any any (msg:"m"; content:"x"; sid:1;)')

    def test_udp_rule_round_trips(self):
        sig = Signature(sid=8, pattern=b"\x07version\x04bind", protocol="udp", dst_port=53)
        assert parse_rule(format_rule(sig)) == sig

    def test_comments_and_blanks_skipped(self):
        text = f"# header\n\n{self.LINE}\n"
        rules = parse_rules(text)
        assert len(rules) == 1

    def test_format_round_trip(self):
        sig = Signature(sid=77, pattern=b"\x90\x90/bin/sh", msg="shellcode", dst_port=None)
        assert parse_rule(format_rule(sig)) == sig

    def test_dump_round_trip(self):
        sigs = [
            Signature(sid=1, pattern=b"one", msg="m1", dst_port=80),
            Signature(sid=2, pattern=b'tw"o;|', msg="m2"),
        ]
        parsed = parse_rules(dump_rules(sigs))
        assert list(parsed) == sigs
