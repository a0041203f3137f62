"""Engines built from one ``EngineSpec`` share one compiled ruleset.

``EngineSpec.build`` compiles the spec's rules once (``CompiledRules``:
the split and the piece tables) and every later engine from that spec
-- every shard, every ensemble path -- scans through views of it; the
slow path confirms on the fast path's piece automaton, so one engine
builds one ``DualAutomaton``.  Held here:

- a spec's engines split the rules once and build the automata of one
  plain engine, however many shards or ensemble paths share them; a
  ruleset that gained a signature is compiled afresh, and a hot reload
  splits and compiles once for both paths;
- scan counters stay per engine: four shards' counters sum to the
  one-shard run's, and two engines fed different traces each report
  only their own traffic;
- detection is unchanged (golden digest at 1 and 4 shards), and the
  compiled set never reaches the spec's pickle;
- the shared rows of a set too big for the young generations live
  exactly as long as their last automaton: a view keeps them walking
  after its origin is gone, and the last holder's exit unlinks them, so
  no full collection is needed to free the set.
"""

from __future__ import annotations

import pickle

import pytest

from helpers import ATTACK_SIGNATURE, SIGNATURE_OFFSET, attack_payload
from repro.core import engine as engine_module
from repro.evasion import build_attack
from repro.match import aho_corasick
from repro.pcap.columnar import encode_batches
from repro.runtime import EngineSpec, RunnerConfig, SerialRunner
from repro.runtime.worker import ShardProcessor
from repro.signatures import Signature, load_bundled_rules
from repro.streams import OverlapPolicy
from repro.traffic import TrafficProfile, generate_trace, inject_attacks

#: ``SerialRunner`` digest of :func:`gauntlet` under :func:`bundled_spec`
#: rules, at 1 and 4 shards, as engines that each compiled their own
#: tables reported it.
GOLDEN_DIGEST = "20d983f257edb2e7c432f06067ecf7234d31f36560bc69c440e56b878d670bd5"

#: What one engine compiled from its own bundled-corpus rules builds:
#: the two sides of one piece ``DualAutomaton``.
PLAIN_ENGINE_BUILDS = {"automata": 2, "splits": 1}

#: ``DualAutomaton.scan_stats`` figures that count scans.
SCAN_KEYS = ("scans", "scanned_bytes", "matches_emitted", "prefilter_skips", "sweep_verifies")


def bundled_spec(**kwargs) -> EngineSpec:
    rules = load_bundled_rules()
    rules.add(Signature(sid=5001, pattern=ATTACK_SIGNATURE, msg="test attack", dst_port=80))
    return EngineSpec(rules=rules, **kwargs)


def gauntlet():
    """Benign background plus catalog attacks, fragmentation included."""
    trace = generate_trace(TrafficProfile(flows=40), seed=7)
    span = (SIGNATURE_OFFSET, len(ATTACK_SIGNATURE))
    attacks = [
        build_attack(
            name, attack_payload(), signature_span=span, src=f"10.66.0.{i + 1}", dst_port=80, seed=i
        )
        for i, name in enumerate(["tcp_seg_8", "ip_frag_8", "stealth_segments", "tcp_overlap_new"])
    ]
    return inject_attacks(trace, attacks)


@pytest.fixture
def builds(monkeypatch):
    """Counts ``AhoCorasick`` constructions and rule splits."""
    counts = {"automata": 0, "splits": 0}
    construct = aho_corasick.AhoCorasick.__init__
    split = engine_module.split_ruleset

    def counted_construct(self, *args, **kwargs):
        counts["automata"] += 1
        construct(self, *args, **kwargs)

    def counted_split(*args, **kwargs):
        counts["splits"] += 1
        return split(*args, **kwargs)

    monkeypatch.setattr(aho_corasick.AhoCorasick, "__init__", counted_construct)
    monkeypatch.setattr(engine_module, "split_ruleset", counted_split)
    return counts


@pytest.fixture
def built(monkeypatch):
    """Every engine ``EngineSpec.build`` returns, in build order."""
    engines = []
    build = EngineSpec.build

    def recording(self, *args, **kwargs):
        engines.append(build(self, *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(EngineSpec, "build", recording)
    return engines


def figures(engines) -> dict[str, int]:
    """The engines' scan counters, summed: the fast path's piece
    automaton and each side of the slow path's view of it."""
    out: dict[str, int] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for engine in engines:
        stats = engine.fast_path.automaton.scan_stats()
        for key in SCAN_KEYS:
            add(f"fast.{key}", stats[key])
        current = engine.slow_path._current
        for side, stats in current.automaton.side_stats():
            for key in ("swept_chunks", "walked_chunks", "walked_bytes", *SCAN_KEYS[:4]):
                add(f"piece.{side}.{key}", stats[key])
        add("stream_sweep.verifies", current.sweep.verifies)
    return out


class TestOneCompilePerSpec:
    def test_a_plain_engine_builds_two_automata(self, builds):
        bundled_spec().build()
        assert builds == PLAIN_ENGINE_BUILDS

    def test_four_shards_build_what_one_engine_builds(self, builds):
        spec = bundled_spec()
        processors = [ShardProcessor(shard, spec, RunnerConfig()) for shard in range(4)]
        assert builds == PLAIN_ENGINE_BUILDS
        fast = [p.engine.fast_path.automaton for p in processors]
        assert len({id(a) for a in fast}) == 4  # one view each ...
        assert len({id(a.sensitive._rows) for a in fast}) == 1  # ... of one table

    def test_ensemble_paths_share_their_engines_set(self, builds):
        policies = (OverlapPolicy.FIRST, OverlapPolicy.LAST)
        engine = bundled_spec(ensemble_policies=policies).build()
        assert len(engine.ensemble_paths) == 2
        assert builds == PLAIN_ENGINE_BUILDS
        paths = [engine.slow_path, *engine.ensemble_paths]
        sweeps = [engine.fast_path.automaton.sweep, *(p._current.sweep for p in paths)]
        assert len({id(sweep) for sweep in sweeps}) == 4
        assert len({id(sweep._table) for sweep in sweeps}) == 1

    def test_a_ruleset_that_gained_a_signature_compiles_afresh(self, builds):
        spec = bundled_spec()
        spec.build()
        spec.build()
        assert builds == PLAIN_ENGINE_BUILDS
        spec.rules.add(Signature(sid=4000, pattern=b"FRESHLY-ADDED-SIGNATURE", msg="late"))
        engine = spec.build()
        assert builds["splits"] == 2
        assert 4000 in engine.split_rules.splits
        payloads = [b"x" * 40 + b"FRESHLY-ADDED-SIGNATURE"]
        assert engine.fast_path.automaton.scan_many(payloads)[0]

    def test_a_hot_reload_splits_once_and_both_paths_share_its_pieces(self, builds):
        engine = bundled_spec(ensemble_policies=(OverlapPolicy.FIRST,)).build()
        rules = bundled_spec().rules
        rules.add(Signature(sid=4000, pattern=b"FRESHLY-ADDED-SIGNATURE", msg="late"))
        engine.swap_rules(rules)
        assert builds == {"automata": 4, "splits": 2}  # the build, then one reload
        fast = engine.fast_path.automaton
        for path in (engine.slow_path, *engine.ensemble_paths):
            current = path._current
            assert current.generation == 1 and current.automaton is not fast
            assert current.automaton.sensitive._rows is fast.sensitive._rows
            assert 4000 in {signature.sid for signature in current.signatures}

    def test_the_compiled_set_never_reaches_the_pickle(self):
        spec = bundled_spec()
        size = len(pickle.dumps(spec))
        for _ in range(2):
            spec.build()
        assert len(pickle.dumps(spec)) == size
        shipped = pickle.loads(pickle.dumps(spec))
        assert "_compiled" not in shipped.__dict__ and shipped == spec


class TestCountersArePerEngine:
    def test_four_shards_sum_to_the_one_shard_figures(self, built):
        trace = gauntlet()
        config = RunnerConfig(batch_size=1)  # one route, whatever the shard count
        runs = {}
        for shards in (1, 4):
            built.clear()
            SerialRunner(bundled_spec(), shards=shards, config=config).run(trace)
            assert len(built) == shards
            runs[shards] = figures(built)
        assert runs[4] == runs[1]
        assert runs[1]["fast.scans"] and runs[1]["piece.sensitive.swept_chunks"]

    def test_two_engines_report_only_their_own_traffic(self):
        mine = generate_trace(TrafficProfile(flows=40), seed=3)
        theirs = gauntlet()

        def feed(engine, trace):
            for batch in encode_batches(trace, 256):
                engine.process_column_batch(batch)
            return engine

        spec = bundled_spec()
        shared = [feed(spec.build(), mine), feed(spec.build(), theirs)]
        alone = [feed(bundled_spec().build(), mine), feed(bundled_spec().build(), theirs)]
        for engine, reference in zip(shared, alone):
            assert figures([engine]) == figures([reference])
        assert figures(shared[:1])["fast.sweep_verifies"] > 0


def test_alerts_and_digest_at_one_and_four_shards_are_unchanged():
    trace = gauntlet()
    spec = bundled_spec()
    one = SerialRunner(spec, shards=1, config=RunnerConfig()).run(trace)
    four = SerialRunner(spec, shards=4, config=RunnerConfig()).run(trace)
    assert one.digest() == four.digest() == GOLDEN_DIGEST
    assert one.alerts == four.alerts
    assert {(a.sid, a.flow.src) for a in one.alerts if a.sid} == {
        (5001, f"10.66.0.{i}") for i in range(1, 5)
    }


def test_rows_live_as_long_as_their_last_automaton():
    base = aho_corasick.AhoCorasick([b"abc", b"bcd"])
    view = base.view()
    root = base._root_row
    del base
    assert view.find_all(b"xabcd") == [(0, 4), (1, 5)]
    assert root[0] is root  # still linked: the view holds the rows
    del view
    assert root == []  # unlinked as the last holder went, no collection run
