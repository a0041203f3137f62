"""End-to-end tests for nocase and multi-content rule features."""

import pytest

from repro.core import AlertKind, ConventionalIPS, NaivePacketIPS, SplitDetectIPS
from repro.evasion import build_attack
from repro.match import DualAutomaton, DualStreamMatcher
from repro.signatures import RuleSet, Signature, format_rule, parse_rule


def run(ips, packets):
    alerts = []
    for p in packets:
        alerts.extend(ips.process(p))
    return alerts


def sig_alerts(alerts, sid):
    return [a for a in alerts if a.sid == sid and a.kind in (AlertKind.SIGNATURE, AlertKind.PARTIAL_SIGNATURE)]


class TestDualAutomaton:
    def test_sensitive_and_folded_separated(self):
        auto = DualAutomaton([(b"CaseExact", False), (b"AnyCase", True)])
        hits = {pid for pid, _ in auto.find_all(b"...caseexact...anycase...")}
        assert hits == {1}  # only the nocase pattern matched
        hits = {pid for pid, _ in auto.find_all(b"...CaseExact...ANYCASE...")}
        assert hits == {0, 1}

    def test_ids_stable_in_construction_order(self):
        auto = DualAutomaton([(b"bbb", True), (b"aaa", False), (b"ccc", True)])
        hits = sorted(auto.find_all(b"aaa BBB CCC"))
        assert [pid for pid, _ in hits] == [0, 1, 2]

    def test_no_nocase_means_no_folded_side(self):
        auto = DualAutomaton([(b"x", False)])
        assert auto.folded is None
        assert len(auto.sides) == 1

    def test_streaming_matches_batch(self):
        auto = DualAutomaton([(b"NeEdLe", True), (b"exact", False)])
        data = b"...needle...EXACT...exact..."
        batch = sorted(auto.find_all(data))
        matcher = DualStreamMatcher(auto)
        stitched = []
        for i in range(0, len(data), 5):
            stitched.extend((m.pattern_id, m.end_offset) for m in matcher.feed(data[i:i+5]))
        assert sorted(stitched) == batch


class TestNocaseRules:
    def ruleset(self):
        rules = RuleSet()
        rules.add(Signature(sid=8001, pattern=b"select union from accounts", msg="sqli", nocase=True))
        rules.add(Signature(sid=8002, pattern=b"CaseSensitiveToken-ZQ7#xx", msg="exact"))
        return rules

    def test_nocase_matches_any_case(self):
        for variant in (b"SELECT UNION FROM ACCOUNTS", b"SeLeCt UnIoN fRoM aCcOuNtS"):
            ips = SplitDetectIPS(self.ruleset())
            alerts = run(ips, build_attack("plain", b"x" * 50 + variant + b"y" * 50))
            assert sig_alerts(alerts, 8001), variant

    def test_nocase_pieces_catch_split_delivery(self):
        ips = SplitDetectIPS(self.ruleset())
        payload = b"x" * 50 + b"SELECT UNION FROM ACCOUNTS" + b"y" * 50
        alerts = run(ips, build_attack("tcp_seg_8", payload))
        assert sig_alerts(alerts, 8001)

    def test_case_sensitive_rule_unaffected(self):
        ips = SplitDetectIPS(self.ruleset())
        alerts = run(ips, build_attack("plain", b"x" * 50 + b"casesensitivetoken-zq7#xx" + b"y" * 50))
        assert not sig_alerts(alerts, 8002)

    def test_conventional_nocase(self):
        ips = ConventionalIPS(self.ruleset())
        alerts = run(ips, build_attack("tcp_seg_8", b"x" * 50 + b"sElEcT uNiOn FrOm AcCoUnTs" + b"y" * 50))
        assert sig_alerts(alerts, 8001)

    def test_rule_syntax_round_trip(self):
        sig = Signature(sid=9, pattern=b"AbCdEfGhIjKl", msg="m", nocase=True)
        assert parse_rule(format_rule(sig)) == sig


class TestMultiContentRules:
    def ruleset(self):
        rules = RuleSet()
        rules.add(
            Signature(
                sid=8101,
                pattern=b"GET /admin/config.php?debug=",
                extra_contents=(b"Cookie: role=guest", b"X-Override: 1"),
                msg="multi-content web rule",
            )
        )
        return rules

    def payload(self, include=("a", "b")):
        body = bytearray(b"filler " * 60)
        parts = [b"GET /admin/config.php?debug=1 HTTP/1.1\r\n"]
        if "a" in include:
            parts.append(b"Cookie: role=guest\r\n")
        if "b" in include:
            parts.append(b"X-Override: 1\r\n")
        return bytes(body) + b"".join(parts) + b"\r\n" + b"tail " * 40

    def test_all_contents_present_fires(self):
        ips = SplitDetectIPS(self.ruleset())
        alerts = run(ips, build_attack("plain", self.payload()))
        assert sig_alerts(alerts, 8101)

    def test_missing_extra_does_not_fire(self):
        for include in (("a",), ("b",), ()):
            ips = SplitDetectIPS(self.ruleset())
            alerts = run(ips, build_attack("plain", self.payload(include)))
            assert not sig_alerts(alerts, 8101), include

    def test_contents_split_across_segments(self):
        ips = SplitDetectIPS(self.ruleset())
        alerts = run(ips, build_attack("tcp_seg_8", self.payload()))
        assert sig_alerts(alerts, 8101)

    def test_extras_before_primary_still_fires(self):
        body = (
            b"Cookie: role=guest\r\nX-Override: 1\r\n" + b"filler " * 50
            + b"GET /admin/config.php?debug=1\r\n"
        )
        ips = ConventionalIPS(self.ruleset())
        alerts = run(ips, build_attack("mss_segments", body))
        assert sig_alerts(alerts, 8101)

    def test_naive_requires_same_packet(self):
        ips = NaivePacketIPS(self.ruleset())
        alerts = run(ips, build_attack("plain", self.payload()))
        assert sig_alerts(alerts, 8101)

    def test_parser_collects_extras(self):
        sig = parse_rule(
            'alert tcp any any -> any 80 (msg:"m"; content:"short"; '
            'content:"the longest content here"; content:"mid"; sid:5;)'
        )
        assert sig.pattern == b"the longest content here"
        assert set(sig.extra_contents) == {b"short", b"mid"}

    def test_format_round_trip(self):
        sig = Signature(
            sid=5, pattern=b"longest-content-x", extra_contents=(b"aaa", b"bb|b"), msg="m"
        )
        assert parse_rule(format_rule(sig)) == sig

    def test_validation_rejects_longer_extra(self):
        with pytest.raises(ValueError):
            Signature(sid=1, pattern=b"short", extra_contents=(b"muchlonger",))
