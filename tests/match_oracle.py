"""The sparse Aho-Corasick walk: the oracle the compiled rows are held to.

The product compiles every automaton to linked rows and drops its trie
(:mod:`repro.match.aho_corasick`).  This module rebuilds the trie from
the patterns and walks it the textbook way -- goto edge, else follow
failure links -- one state at a time.  ``tests/test_match.py`` holds the
rows to it transition by transition and on whole scans, and
``benchmarks/bench_fig9_matchers.py`` times the compiled walk against it.

Importable from the repo root's ``tests/`` directory (pytest puts it on
``sys.path`` for the tests; fig9 adds it).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.match import ROOT_STATE, AhoCorasick, DualAutomaton
from repro.match.aho_corasick import build_trie, fresh_copy


class SparseAutomaton(AhoCorasick):
    """An :class:`AhoCorasick` whose every scan walks the sparse trie with
    explicit failure links, with no prefilter.  Same ids, states, match
    tuples and counters as the compiled scan, so the two may be compared
    call for call and a stream's state carried from one to the other."""

    def __init__(self, patterns: Sequence[bytes]) -> None:
        super().__init__(patterns)
        self.goto, self.fail, self.output = build_trie(self.patterns)

    def step(self, state: int, byte: int) -> int:
        """One transition of the failure walk."""
        goto, fail = self.goto, self.fail
        nxt = goto[state].get(byte)
        while nxt is None and state != ROOT_STATE:
            state = fail[state]
            nxt = goto[state].get(byte)
        return ROOT_STATE if nxt is None else nxt

    def scan(self, data: bytes, state: int = ROOT_STATE) -> tuple[int, list[tuple[int, int]]]:
        self.scans += 1
        self.scanned_bytes += len(data)
        goto, fail, output = self.goto, self.fail, self.output
        matches: list[tuple[int, int]] = []
        for offset, byte in enumerate(data):
            nxt = goto[state].get(byte)
            while nxt is None and state != ROOT_STATE:
                state = fail[state]
                nxt = goto[state].get(byte)
            state = nxt if nxt is not None else ROOT_STATE
            if output[state]:
                end = offset + 1
                matches.extend((pid, end) for pid in output[state])
        self.matches_emitted += len(matches)
        return state, matches

    def find_all(self, data: bytes) -> list[tuple[int, int]]:
        return self.scan(data)[1]

    def scan_many(self, payloads: Sequence[bytes]) -> list[list[tuple[int, int]]]:
        return [self.find_all(payload) for payload in payloads]


def sparse_dual(patterns: Sequence[tuple[bytes, bool]]) -> DualAutomaton:
    """A :class:`DualAutomaton` over ``patterns`` whose sides walk the
    sparse trie and which never sweeps: the oracle for every batch and
    stream entry point."""
    dual = DualAutomaton(patterns)
    sensitive, folded = (side and SparseAutomaton(side.patterns) for side in (dual.sensitive, dual.folded))
    oracle = fresh_copy(dual, ("sweep",), sensitive=sensitive, folded=folded)
    oracle.sweep = None
    oracle.sides = tuple((folded if fold else sensitive, ids, fold) for _, ids, fold in dual.sides)
    return oracle
