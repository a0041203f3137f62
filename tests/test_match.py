"""Unit, differential, and property tests for the matching engines."""

import gc
import itertools
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from match_oracle import SparseAutomaton, sparse_dual
from repro.core import SplitDetectIPS
from repro.match import (
    ROOT_STATE,
    AhoCorasick,
    DualAutomaton,
    DualStreamMatcher,
    StreamMatcher,
    aho_corasick,
    sweep,
)
from repro.signatures import load_bundled_rules, synthesize_corpus
from repro.traffic import benign_payload


def naive_find_all(pattern, data):
    """Reference quadratic search; ground truth for differential tests."""
    return [
        i for i in range(len(data) - len(pattern) + 1) if data[i : i + len(pattern)] == pattern
    ]


def ac_starts(automaton, data, pattern_id):
    """Start offsets of pattern_id occurrences, derived from end offsets."""
    length = len(automaton.patterns[pattern_id])
    return [end - length for pid, end in automaton.find_all(data) if pid == pattern_id]


class TestAhoCorasickBasics:
    def test_single_pattern_single_match(self):
        ac = AhoCorasick([b"needle"])
        assert ac.find_all(b"hay needle hay") == [(0, 10)]

    def test_multiple_patterns(self):
        ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
        matches = ac.find_all(b"ushers")
        assert set(matches) == {(1, 4), (0, 4), (3, 6)}

    def test_overlapping_occurrences(self):
        ac = AhoCorasick([b"aa"])
        assert ac.find_all(b"aaaa") == [(0, 2), (0, 3), (0, 4)]

    def test_no_match(self):
        ac = AhoCorasick([b"xyz"])
        assert ac.find_all(b"abcabcabc") == []

    def test_pattern_is_substring_of_other(self):
        ac = AhoCorasick([b"abc", b"abcdef"])
        matches = ac.find_all(b"zabcdefz")
        assert (0, 4) in matches and (1, 7) in matches

    def test_duplicate_patterns_both_report(self):
        ac = AhoCorasick([b"dup", b"dup"])
        pids = {pid for pid, _ in ac.find_all(b"a dup here")}
        assert pids == {0, 1}

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([b"ok", b""])

    def test_binary_patterns(self):
        ac = AhoCorasick([bytes([0, 255, 0])])
        assert ac.find_all(bytes([1, 0, 255, 0, 1])) == [(0, 4)]

    def test_state_count_reflects_trie(self):
        ac = AhoCorasick([b"ab", b"ac"])
        assert ac.state_count == 4  # root, a, ab, ac


class TestAhoCorasickStreaming:
    def test_match_across_chunk_boundary(self):
        ac = AhoCorasick([b"attack"])
        state, m1 = ac.scan(b"...att")
        assert m1 == []
        state, m2 = ac.scan(b"ack...", state)
        assert [pid for pid, _ in m2] == [0]

    def test_state_reset_hides_straddling_match(self):
        # This is precisely why per-packet matching alone misses evasions.
        ac = AhoCorasick([b"attack"])
        _, m1 = ac.scan(b"...att")
        _, m2 = ac.scan(b"ack...")
        assert m1 == [] and m2 == []

    def test_byte_at_a_time_equals_whole_buffer(self):
        ac = AhoCorasick([b"abab", b"ba"])
        data = b"abababab"
        whole = ac.find_all(data)
        state = 0
        stitched = []
        for i, byte in enumerate(data):
            state, matches = ac.scan(bytes([byte]), state)
            stitched.extend((pid, i + 1) for pid, _ in matches)
        assert stitched == whole


class TestStreamMatcher:
    def test_absolute_offsets(self):
        matcher = StreamMatcher(AhoCorasick([b"sig"]))
        assert matcher.feed(b"aaaa") == []
        matches = matcher.feed(b"bbsig")
        assert matches[0].end_offset == 9
        assert matcher.stream_offset == 9

    def test_straddling_chunks(self):
        matcher = StreamMatcher(AhoCorasick([b"split"]))
        matcher.feed(b"xxsp")
        matches = matcher.feed(b"litxx")
        assert [m.end_offset for m in matches] == [7]  # "xxsplitxx"[2:7]


patterns_strategy = st.lists(
    st.binary(min_size=1, max_size=8), min_size=1, max_size=6
)


@given(patterns_strategy, st.binary(max_size=300))
@settings(max_examples=150)
def test_aho_corasick_matches_naive(patterns, data):
    ac = AhoCorasick(patterns)
    for pid, pattern in enumerate(patterns):
        expected = naive_find_all(pattern, data)
        assert ac_starts(ac, data, pid) == expected


@given(
    patterns_strategy,
    st.lists(st.binary(max_size=40), min_size=1, max_size=8),
)
@settings(max_examples=100)
def test_streaming_equals_batch(patterns, chunks):
    ac = AhoCorasick(patterns)
    data = b"".join(chunks)
    whole = ac.find_all(data)
    matcher = StreamMatcher(ac)
    stitched = []
    for chunk in chunks:
        stitched.extend((m.pattern_id, m.end_offset) for m in matcher.feed(chunk))
    assert stitched == whole


@given(st.binary(min_size=1, max_size=6), st.binary(max_size=120))
def test_every_reported_ac_match_is_real(pattern, data):
    ac = AhoCorasick([pattern])
    for _, end in ac.find_all(data):
        assert data[end - len(pattern) : end] == pattern


class TestCompiledEngine:
    """The compiled rows against the sparse oracle (``match_oracle``)."""

    def test_compiled_by_default(self):
        ac = AhoCorasick([b"abc"])
        assert len(ac._rows) == ac.state_count == 4
        assert not hasattr(ac, "_goto") and not hasattr(ac, "_fail")  # the trie is dropped
        assert ac.compiled_table_bytes() > 0

    def test_start_bytes_are_pattern_first_bytes(self):
        ac = AhoCorasick([b"zebra", b"apple", b"zoo"])
        assert ac.start_bytes == b"az"

    def test_prefilter_payload_without_start_byte(self):
        ac = AhoCorasick([b"zq"])
        assert ac.scan(b"a" * 4096) == (0, [])

    def test_state_interchange_between_engines(self):
        # A stream prefix scanned by one engine resumes on the other:
        # both walk the identical state-id space.
        ac = AhoCorasick([b"attack"])
        reference = SparseAutomaton([b"attack"])
        state, _ = reference.scan(b"...att")
        final, matches = ac.scan(b"ack", state)
        assert [pid for pid, _ in matches] == [0]
        state, _ = ac.scan(b"...att")
        final_ref, matches_ref = reference.scan(b"ack", state)
        assert (final_ref, [pid for pid, _ in matches_ref]) == (final, [0])

    def test_periodic_pattern_deeper_than_the_recursion_limit(self):
        # Every state of a NOP sled fails to the one a byte shallower, so
        # a byte off the sled at its end defers through as many deep rows
        # as the sled is long, and must not cost a Python frame each.
        sled = b"\x90" * (sys.getrecursionlimit() + 500)
        patterns = [sled, sled[:700] + b"A", b"B"]
        compiled, reference = AhoCorasick(patterns), SparseAutomaton(patterns)
        for data in (sled + b"A", sled + b"B", sled + b"C" + sled):
            assert compiled.scan(data) == reference.scan(data)
            assert compiled.find_all(data) == reference.find_all(data)
            assert compiled.scan_many([data, data[1:]]) == reference.scan_many([data, data[1:]])
            state, ref_state = ROOT_STATE, ROOT_STATE
            for cut in range(0, len(data), 333):  # resumed across chunks
                state, matches = compiled.scan(data[cut : cut + 333], state)
                ref_state, ref_matches = reference.scan(data[cut : cut + 333], ref_state)
                assert (state, matches) == (ref_state, ref_matches)

    def test_scan_many_empty_inputs(self):
        ac = AhoCorasick([b"sig"])
        assert ac.scan_many([]) == []
        assert ac.scan_many([b""]) == [[]]


@given(patterns_strategy, st.binary(max_size=300))
@settings(max_examples=150)
def test_compiled_equals_reference(patterns, data):
    compiled = AhoCorasick(patterns)
    reference = SparseAutomaton(patterns)
    assert compiled.scan(data) == reference.scan(data)


@given(patterns_strategy, st.lists(st.binary(max_size=40), min_size=1, max_size=8))
@settings(max_examples=100)
def test_compiled_streaming_resume_equals_reference(patterns, chunks):
    compiled = AhoCorasick(patterns)
    reference = SparseAutomaton(patterns)
    state_c = state_r = 0
    for chunk in chunks:
        state_c, matches_c = compiled.scan(chunk, state_c)
        state_r, matches_r = reference.scan(chunk, state_r)
        assert (state_c, matches_c) == (state_r, matches_r)


@given(patterns_strategy, st.lists(st.binary(max_size=60), max_size=6))
@settings(max_examples=100)
def test_scan_many_equals_per_payload(patterns, payloads):
    compiled = AhoCorasick(patterns)
    reference = SparseAutomaton(patterns)
    expected = [compiled.find_all(payload) for payload in payloads]
    assert compiled.scan_many(payloads) == expected
    assert reference.scan_many(payloads) == expected


dual_patterns_strategy = st.lists(
    st.tuples(st.binary(min_size=1, max_size=6), st.booleans()),
    min_size=1,
    max_size=6,
)


@given(dual_patterns_strategy, st.binary(max_size=200))
@settings(max_examples=100)
def test_dual_compiled_equals_reference(patterns, data):
    compiled = DualAutomaton(patterns)
    reference = sparse_dual(patterns)
    assert compiled.find_all(data) == reference.find_all(data)
    assert compiled.scan_many([data, b"", data]) == reference.scan_many(
        [data, b"", data]
    )
    assert compiled.scan_many([data])[0] == compiled.find_all(data)


# -- the compiled rows, transition by transition ------------------------------


def assert_rows_resolve_every_transition(automaton):
    """Every (state, byte) of the compiled rows lands where the sparse
    failure walk does, every row carries its state's outputs and id, a
    row is a full list only down to ``SHALLOW_DEPTH``, and the footprint
    counts exactly the row containers plus the booked sweep."""
    rows = automaton._rows
    oracle = SparseAutomaton(automaton.patterns)
    assert len(rows) == automaton.state_count == len(oracle.goto)
    depth = {ROOT_STATE: 0}
    for state, edges in enumerate(oracle.goto):  # a child's id exceeds its parent's
        depth.update((child, depth[state] + 1) for child in edges.values())
    for state, row in enumerate(rows):
        assert row[257] == state
        assert row[256] == oracle.output[state]
        assert [row[byte][257] for byte in range(256)] == [
            oracle.step(state, byte) for byte in range(256)
        ], state
        shallow = depth[state] <= aho_corasick.SHALLOW_DEPTH
        assert (type(row) is list and len(row) == 258) if shallow else (
            len(row) == len(oracle.goto[state]) + 2
        ), state
    assert automaton.compiled_table_bytes() == (
        sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)) + automaton.sweep_table_bytes
    )


_row_alphabet = st.sampled_from(b"aAb\x00\xff")
_row_pattern = st.one_of(
    st.binary(min_size=1, max_size=1),
    st.lists(_row_alphabet, min_size=255, max_size=255).map(bytes),
    st.lists(_row_alphabet, min_size=1, max_size=12).map(bytes),
)


@st.composite
def row_cases(draw):
    """(pattern, nocase) sets: 1- and 255-byte patterns, a shared prefix,
    a duplicate, and both the raw and the case-folded side."""
    patterns = draw(st.lists(st.tuples(_row_pattern, st.booleans()), min_size=1, max_size=5))
    head, _ = draw(st.sampled_from(patterns))
    cut = draw(st.integers(min_value=1, max_value=len(head)))
    patterns.append((head[:cut] + draw(_row_pattern), draw(st.booleans())))
    patterns.append(draw(st.sampled_from(patterns)))
    return draw(st.permutations(patterns))


@given(row_cases())
@settings(max_examples=40, deadline=None)
def test_compiled_rows_equal_failure_walk_on_every_transition(patterns):
    for side, *_ in DualAutomaton(patterns).sides:
        assert_rows_resolve_every_transition(side)


def test_bundled_engine_rows_equal_failure_walk_on_every_transition():
    ips = SplitDetectIPS(load_bundled_rules())
    fast = ips.fast_path.automaton
    fast.scan_many([b"x" * 64])  # builds and books the fast path's sweep
    sides = [side for side, *_ in fast.sides]
    assert len(sides) == 2
    assert any(side.sweep_table_bytes for side in sides)
    slow = ips.slow_path._current.automaton  # the slow path walks the same rows
    assert [side._rows for side, *_ in slow.sides] == [side._rows for side in sides]
    for side in sides:
        assert_rows_resolve_every_transition(side)


def test_bundled_set_holds_few_pointer_slots_and_containers():
    """Counted, not timed: what a full collection walks for a live
    bundled set.  Every row is one tracked container; a full row is 258
    slots, a deep row its edges, outputs, id and failure row; the row
    lists hold one slot per row.  (All 10,504 rows full: 2,720,536.)"""
    fast = SplitDetectIPS(load_bundled_rules()).fast_path.automaton
    gc.collect()
    rows = [side._rows for side, *_ in fast.sides]
    held = [row for side_rows in rows for row in side_rows]
    full = [row for row in held if type(row) is list]
    assert (len(held), len(full)) == (10_504, 712)
    slots = sum(map(len, rows)) + sum(len(row) + (type(row) is not list) for row in held)
    assert slots == 232_710
    assert sum(map(gc.is_tracked, held)) == len(held)


def test_families_100_compiles_and_equals_the_oracle_on_benign_text():
    """A synthetic corpus past the size where the product used to fall
    back to the sparse walk (20,176 piece states) compiles to rows, and
    both batch entry points and ``find_all`` equal the oracle on benign
    payloads with a sample of its patterns planted (nocase ones
    case-flipped)."""
    fast = SplitDetectIPS(synthesize_corpus(families=100)).fast_path.automaton
    states = [side.state_count for side, *_ in fast.sides]
    assert states == [len(side._rows) for side, *_ in fast.sides] and max(states) > 16_384
    patterns = _pattern_list(fast)
    reference = sparse_dual(patterns)
    rng = random.Random(100)
    payloads = [
        benign_payload(rng, rng.randrange(20, 400))
        + (pattern.swapcase() if nocase else pattern)
        + benign_payload(rng, rng.randrange(20, 400))
        for pattern, nocase in rng.sample(patterns, 120)
    ] + [benign_payload(rng, 1400) for _ in range(8)]
    expected = [reference.find_all(payload) for payload in payloads]
    assert sum(map(len, expected)) >= 120
    assert [fast.find_all(payload) for payload in payloads] == expected
    for batch in (payloads[:3], payloads):  # under and over MIN_SWEEP_BYTES
        assert fast.scan_many(batch) == expected[: len(batch)]
        assert fast.prescan_batch(list(map(memoryview, batch))) == expected[: len(batch)]


# -- batch q-gram sweep ------------------------------------------------------

# A tiny alphabet (zero and high bytes, both letter cases) makes random
# patterns nest, overlap, repeat and actually occur in random payloads.
_SWEEP_ALPHABET = b"\x00aAbB\xff\xc1"
_sweep_bytes = st.lists(st.sampled_from(_SWEEP_ALPHABET), max_size=40).map(bytes)
_sweep_pattern = st.lists(
    st.sampled_from(_SWEEP_ALPHABET), min_size=4, max_size=11
).map(bytes)


@st.composite
def sweep_cases(draw):
    """(patterns, payloads) for a pattern set large enough to be swept."""
    # One side must exceed the literal sweep's 64 patterns; either may.
    big_nocase = draw(st.booleans())
    patterns = [
        (pattern, big_nocase)
        for pattern in draw(st.lists(_sweep_pattern, min_size=65, max_size=75))
    ] + [
        (pattern, not big_nocase)
        for pattern in draw(st.lists(_sweep_pattern, max_size=10))
    ]
    patterns.append((draw(st.sampled_from(patterns))[0][:4], draw(st.booleans())))
    patterns.append(draw(st.sampled_from(patterns)))  # a duplicate
    patterns = draw(st.permutations(patterns))
    payloads = draw(st.lists(_sweep_bytes, min_size=1, max_size=8))
    planted = draw(st.sampled_from(patterns))[0]
    cut = draw(st.integers(min_value=1, max_value=len(planted) - 1))
    payloads += [
        b"",
        planted[:3],  # shorter than one gram
        planted + draw(_sweep_bytes),  # occurrence at offset 0
        draw(_sweep_bytes) + planted,  # ... and at the very end
        draw(_sweep_bytes) + planted[:cut],  # split across two payloads:
        planted[cut:] + draw(_sweep_bytes),  # must not match as a whole
    ]
    return patterns, draw(st.permutations(payloads))


@given(sweep_cases())
@settings(max_examples=60, deadline=None)
def test_swept_scan_equals_reference_find_all(case):
    patterns, payloads = case
    reference = sparse_dual(patterns)
    expected = [reference.find_all(payload) for payload in payloads]
    wanted = reference.scan_stats()
    with mock.patch.object(sweep, "MIN_SWEEP_BYTES", sweep.GRAM):  # its floor
        for entry, wrap in (("scan_many", bytes), ("prescan_batch", memoryview)):
            swept = DualAutomaton(patterns)
            assert swept.sweep is not None
            assert getattr(swept, entry)([wrap(p) for p in payloads]) == expected
            stats = swept.scan_stats()
            for counter in ("scans", "scanned_bytes", "matches_emitted"):
                assert stats[counter] == wanted[counter], (entry, counter)


def test_sweep_needs_a_large_set_of_gram_sized_patterns():
    many = [(b"pattern-%03d" % i, False) for i in range(65)]
    assert DualAutomaton(many[:64]).sweep is None  # literal sweep serves it
    assert DualAutomaton(many + [(b"abc", False)]).sweep is None  # shorter than a gram
    assert DualAutomaton(many).sweep is not None


def test_sweep_skips_clean_payloads_and_books_its_tables():
    patterns = [(b"pattern-%03d" % i, i % 2 == 0) for i in range(130)]
    automaton = DualAutomaton(patterns)
    bare = sum(
        AhoCorasick(side.patterns).compiled_table_bytes()
        for side in (automaton.sensitive, automaton.folded)
    )

    def booked_bytes():
        return sum(
            side.compiled_table_bytes()
            for side in (automaton.sensitive, automaton.folded)
        )

    assert booked_bytes() == bare  # built by the first scan_many, not before
    payloads = [b"x" * 1500, b"..PATTERN-004..pattern-005", b"y" * 1500]
    assert automaton.scan_many(payloads) == [[], [(5, 26), (4, 13)], []]
    booked = booked_bytes()
    stats = automaton.scan_stats()
    assert stats["scans"] == 6
    assert booked - bare == automaton.sweep.table_bytes() > 0
    assert stats["prefilter_skips"] == 4


def test_sweep_hostile_density_falls_back_to_the_walk():
    """Payloads made only of pattern-prefix grams must not be verified
    candidate by candidate: dense rows go straight to the table walk."""
    patterns = [(b"%04d-suffix-%04d" % (i, i), False) for i in range(70)]
    automaton = DualAutomaton(patterns)
    reference = sparse_dual(patterns)
    gram_only = [patterns[i][0][:4] * 300 for i in range(8)]  # dense at stage 2
    prefix_only = [patterns[i][0][:8] * 150 for i in range(8)]  # dense at stage 3
    hostile = gram_only + prefix_only
    assert automaton.scan_many(hostile) == [reference.find_all(p) for p in hostile]
    stats = automaton.scan_stats()
    assert stats["sweep_verifies"] == 0
    assert stats["prefilter_skips"] == 0  # nothing was proven clean: all walked
    # Control: sparse near-misses are verified one by one and skipped.
    sparse = [b"." * 700 + patterns[i][0][:8] + b"." * 700 for i in range(8)]
    assert automaton.scan_many(sparse) == [[] for _ in sparse]
    stats = automaton.scan_stats()
    assert stats["sweep_verifies"] == len(sparse)
    assert stats["prefilter_skips"] == len(sparse)


# Filler outside the sweep alphabet: pads random rows until they are
# sparse, so the sweep answers them instead of handing them to the walk.
_SPARSE_FILL = b"0123456789 -./:;" * 64
_SPARSE_PAD = st.tuples(st.integers(0, 15), st.integers(256, 1000)).map(
    lambda cut: _SPARSE_FILL[cut[0] : cut[0] + cut[1]]
)


@st.composite
def sparse_sweep_cases(draw):
    """:func:`sweep_cases` with every payload padded, on one end, by
    filler no pattern can start in: most rows then hold few candidates,
    so they are not hot, and occurrences still sit at either edge."""
    patterns, payloads = draw(sweep_cases())
    return patterns, [
        payload + draw(_SPARSE_PAD) if draw(st.booleans()) else draw(_SPARSE_PAD) + payload
        for payload in payloads
    ]


def test_sparse_swept_scan_equals_reference_find_all():
    """The Hypothesis differential on rows the sweep answers itself: the
    occurrences it verified are the match tuples, tuple for tuple."""
    answered = []

    @given(sparse_sweep_cases())
    @settings(max_examples=60, deadline=None)
    def check(case):
        patterns, payloads = case
        reference = sparse_dual(patterns)
        expected = [reference.find_all(payload) for payload in payloads]
        wanted = reference.scan_stats()
        with mock.patch.object(sweep, "MIN_SWEEP_BYTES", sweep.GRAM):
            for entry, wrap in (("scan_many", bytes), ("prescan_batch", memoryview)):
                swept = DualAutomaton(patterns)
                assert getattr(swept, entry)([wrap(p) for p in payloads]) == expected
                stats = swept.scan_stats()
                for counter in ("scans", "scanned_bytes", "matches_emitted"):
                    assert stats[counter] == wanted[counter], (entry, counter)
            hot, occurrences = swept.sweep.dirty_rows(payloads)
        answered.append(len({row for row, *_ in occurrences} - set(hot)))

    check()
    assert sum(answered) >= len(answered)  # two planted rows a case, unless they run hot


def _pattern_list(automaton):
    """The ``(pattern, nocase)`` list a DualAutomaton was built from (folded)."""
    patterns = [None] * automaton.pattern_count
    for side, ids, fold in automaton.sides:
        for pid, pattern in enumerate(side.patterns):
            patterns[ids[pid]] = (pattern, fold)
    return patterns


def _nested_and_overlapped(patterns):
    """Two payloads for the same side: one pattern holding another inside
    it, and two patterns whose occurrences overlap (neither holds the
    other)."""
    by_gram = {}
    for pattern, nocase in set(patterns):
        by_gram.setdefault((pattern[:4], nocase), []).append(pattern)
    nested = overlapped = None
    for outer, nocase in sorted(set(patterns)):
        for start in range(1, len(outer) - 3):
            for other in by_gram.get((outer[start : start + 4], nocase), ()):
                if other == outer:
                    continue
                if nested is None and outer.startswith(other, start):
                    nested = outer
                elif overlapped is None and other.startswith(outer[start:]):
                    overlapped = outer + other[len(outer) - start :]
    assert nested is not None and overlapped is not None
    return [nested, overlapped]


@pytest.fixture(scope="module")
def bundled_fast_automaton():
    return SplitDetectIPS(load_bundled_rules()).fast_path.automaton


def test_bundled_swept_scan_equals_reference_on_benign_text(bundled_fast_automaton):
    """Real corpus, real text: every fast-path pattern planted once in
    benign payloads (``nocase`` ones case-flipped), in batches just under
    and just over ``MIN_SWEEP_BYTES``.  Both batch entry points equal the
    reference's ``find_all`` and its scan counters, and the table walk is
    handed nothing but the sweep's hot rows."""
    fast = bundled_fast_automaton
    patterns = _pattern_list(fast)
    assert len(set(patterns)) < len(patterns)  # the corpus holds duplicates
    reference = sparse_dual(patterns)
    rng = random.Random(34)
    plants = [p.swapcase() if nocase else p for p, nocase in patterns]
    plants += _nested_and_overlapped(patterns)
    rng.shuffle(plants)
    targets = itertools.cycle(
        (sweep.MIN_SWEEP_BYTES - 1, sweep.MIN_SWEEP_BYTES, sweep.MIN_SWEEP_BYTES + 1)
    )
    batches, batch, size, target = [], [], 0, next(targets)
    for plant in plants:
        payload = (
            benign_payload(rng, rng.randrange(40, 300))
            + plant
            + benign_payload(rng, rng.randrange(40, 300))
        )
        if size + len(payload) > target - 40:  # close it with exact filler
            batches.append(batch + [benign_payload(rng, target - size)])
            batch, size, target = [], 0, next(targets)
        batch.append(payload)
        size += len(payload)
    assert {sum(map(len, b)) for b in batches} == {
        sweep.MIN_SWEEP_BYTES - 1, sweep.MIN_SWEEP_BYTES, sweep.MIN_SWEEP_BYTES + 1
    }
    expected = [[reference.find_all(payload) for payload in b] for b in batches]
    wanted = reference.scan_stats()

    sweeps, walked = [], []
    dirty_rows = sweep.GramSweep.dirty_rows
    scan_many = AhoCorasick.scan_many

    def recording_dirty_rows(self, payloads):
        sweeps.append(dirty_rows(self, payloads))
        return sweeps[-1]

    def counting_scan_many(self, payloads):
        walked.append([bytes(p) for p in payloads])
        return scan_many(self, payloads)

    for entry in ("scan_many", "prescan_batch"):
        before = fast.scan_stats()
        answered = 0
        with (
            mock.patch.object(sweep.GramSweep, "dirty_rows", recording_dirty_rows),
            mock.patch.object(AhoCorasick, "scan_many", counting_scan_many),
        ):
            for payloads, want in zip(batches, expected):
                if entry == "prescan_batch":
                    buffer = memoryview(b"".join(payloads))
                    ends = list(itertools.accumulate(map(len, payloads)))
                    payloads = [buffer[e - len(p) : e] for p, e in zip(payloads, ends)]
                sweeps.clear()
                walked.clear()
                assert getattr(fast, entry)(payloads) == want
                (swept,) = sweeps
                rows = range(len(payloads)) if swept is None else swept[0]
                if swept is not None:
                    answered += len({row for row, *_ in swept[1]} - set(rows))
                handed = [bytes(payloads[row]) for row in rows]
                assert walked == ([handed, [p.lower() for p in handed]] if handed else [])
        after = fast.scan_stats()
        for counter in ("scans", "scanned_bytes", "matches_emitted"):
            assert after[counter] - before[counter] == wanted[counter], (entry, counter)
        assert answered > len(plants) // 4, entry


def test_sweep_collision_without_a_gram_entry_reaches_stage_four():
    """A foreign eight-byte string whose stage-2 and stage-3 slots are
    taken passes both hash stages, but its gram is no pattern's: stage 4
    verifies it against nothing, on both entry points."""
    patterns = [(b"pattern-%03d" % i, i % 2 == 0) for i in range(130)]
    foreign = b"zqxjkvwy"
    first = np.array([int.from_bytes(foreign[:4], "little")], dtype=np.uint32)
    second = np.array([int.from_bytes(foreign[4:], "little")], dtype=np.uint32)

    def mark(gram_sweep):
        assert first[0] not in gram_sweep._by_gram
        gram_sweep._table[gram_sweep._gram_slots(first)] = True
        gram_sweep._prefix_table[gram_sweep._prefix_slots(first, second)] = True

    automaton = DualAutomaton(patterns)
    reference = sparse_dual(patterns)
    mark(automaton.sweep)
    payloads = [b"." * 1000 + foreign + b"." * 1000, b"." * 500 + b"pattern-007" + foreign]
    assert automaton.scan_many(payloads) == [reference.find_all(p) for p in payloads]
    assert automaton.scan_stats()["sweep_verifies"] == 3
    stream = automaton.sweep  # the same tables, one stream chunk at a time
    assert stream.stream_occurrences(b"." * 100, b"." * 300 + foreign + b"." * 300) == []
    assert stream.verifies == 4


# -- the carried stream matcher: the sweep, stale sides, lazy resync ----------

_FILLER = st.integers(min_value=1, max_value=3000).map(lambda n: b"." * n)


@st.composite
def carried_stream_cases(draw):
    """(patterns, chunks): a swept-size pattern set and a stream cut
    into chunks with occurrences implanted across the cuts."""
    big_nocase = draw(st.booleans())
    patterns = [
        (pattern, big_nocase)
        for pattern in draw(st.lists(_sweep_pattern, min_size=65, max_size=70))
    ] + [
        (pattern, not big_nocase)
        for pattern in draw(st.lists(_sweep_pattern, max_size=6))
    ]
    head = draw(st.sampled_from(patterns))[0]
    patterns.append((head[:5] + draw(_sweep_pattern), draw(st.booleans())))  # shared prefix
    patterns.append(draw(st.sampled_from(patterns)))  # a duplicate
    longest = b"".join(draw(st.lists(_sweep_pattern, min_size=4, max_size=6)))
    patterns.append((longest, draw(st.booleans())))  # exactly max_pattern_len
    patterns = draw(st.permutations(patterns))

    def implant():
        pattern, nocase = draw(st.sampled_from([(longest, True), *patterns]))
        return pattern.swapcase() if nocase and draw(st.booleans()) else pattern

    segment = st.one_of(_FILLER, _sweep_bytes, st.builds(implant))
    stream = b"".join(draw(st.lists(segment, min_size=1, max_size=12)))
    size = st.one_of(
        st.just(1),
        st.integers(min_value=2, max_value=sweep.MIN_STREAM_SWEEP_BYTES - 1),
        st.integers(min_value=sweep.MIN_STREAM_SWEEP_BYTES, max_value=4000),
    )
    chunks = []
    while stream:
        cut = draw(size)
        chunks.append(stream[:cut])
        stream = stream[cut:]
    return patterns, chunks


@given(carried_stream_cases())
@settings(max_examples=60, deadline=None)
def test_carried_swept_stream_equals_state_carrying_reference(case):
    """Chunk by chunk the swept, carried matcher reports the reference's
    tuples and offsets, whether the sweep or the walk answered."""
    patterns, chunks = case
    automaton = DualAutomaton(patterns)
    swept = automaton.sweep
    assert swept is not None
    carry = swept.max_pattern_len
    assert carry == max(len(pattern) for pattern, _ in patterns)
    matcher = DualStreamMatcher(automaton, carry=carry, sweep=swept)
    reference = DualStreamMatcher(sparse_dual(patterns))
    for chunk in chunks:
        assert matcher.feed(chunk) == reference.feed(chunk)
        assert matcher.stream_offset == reference.stream_offset
    assert matcher.state_bytes == matcher.STATE_BYTES + min(carry, sum(map(len, chunks)))


def _stream_counts(automaton):
    return {name: stats for name, stats in automaton.side_stats()}


class TestCarriedStreamWorstCase:
    """Counted, not timed: whatever the stream's shape, a chunk costs a
    side at most one sweep or one walk of ``carry + chunk``."""

    LONG = b"L" + bytes(range(60, 233)) + b"!"  # 175 bytes, the carry's length
    PATTERNS = [(b"%04d-suffix-%04d" % (i, i), i % 2 == 1) for i in range(130)] + [
        (LONG, False)
    ]

    def matcher(self):
        automaton = DualAutomaton(self.PATTERNS)
        swept = automaton.sweep
        return automaton, swept, DualStreamMatcher(automaton, carry=swept.max_pattern_len, sweep=swept)

    def feed(self, swept, matcher, chunk):
        return matcher.feed(chunk)

    def test_alternating_swept_and_one_byte_chunks(self):
        automaton, swept, matcher = self.matcher()
        pairs = 40
        for _ in range(pairs):
            assert self.feed(swept, matcher, b"x" * 1448) == []
            assert self.feed(swept, matcher, b"y") == []
        assert swept.verifies == 0
        for stats in _stream_counts(automaton).values():
            assert stats["swept_chunks"] == pairs
            assert stats["walked_chunks"] == pairs
            # Each one-byte chunk: a resync walk of the carry, then the byte.
            assert stats["walked_bytes"] == pairs * (len(self.LONG) + 1)
            assert stats["walked_bytes"] < pairs * 1449  # the unswept matcher's bill
            assert stats["scanned_bytes"] == stats["walked_bytes"] + pairs * 1448

    def test_all_candidate_chunk_goes_straight_to_the_walk(self):
        automaton, swept, matcher = self.matcher()
        dense = self.PATTERNS[3][0][:4] * 400
        reference = DualStreamMatcher(sparse_dual(self.PATTERNS))
        assert self.feed(swept, matcher, dense) == reference.feed(dense)
        assert swept.verifies == 0
        for stats in _stream_counts(automaton).values():
            assert stats["swept_chunks"] == 0
            assert stats["walked_bytes"] == len(dense)  # once, never stale

    def test_chunk_ending_one_byte_short_of_the_longest_pattern(self):
        automaton, swept, matcher = self.matcher()
        first = b"." * 1000 + self.LONG[:-1]
        second = self.LONG[-1:] + b"." * 999
        assert self.feed(swept, matcher, first) == []  # verified: does not fit
        assert swept.verifies == 1
        assert _stream_counts(automaton)["sensitive"]["walked_bytes"] == 0
        assert matcher.carry == first[-len(self.LONG) :]
        (match,) = self.feed(swept, matcher, second)  # starts in the carry
        assert (match.pattern_id, match.end_offset) == (130, 1000 + len(self.LONG))
        assert swept.verifies == 2
        for stats in _stream_counts(automaton).values():  # the sweep answered both
            assert stats["walked_bytes"] == 0 and stats["swept_chunks"] == 2
