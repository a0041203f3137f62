"""Shared machinery for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index).  Conventions:

- Workloads are module-cached so the pytest-benchmark timing loop does
  not re-synthesize traces.
- Every experiment prints its rows through :func:`emit`, which bypasses
  pytest's capture (the rows appear in ``bench_output.txt``) and also
  writes ``benchmarks/results/<experiment>.txt`` for EXPERIMENTS.md.
- Files are importable and runnable standalone:
  ``python benchmarks/bench_table2_state.py`` prints the same rows.
"""

from __future__ import annotations

import contextlib
import functools
import random
import sys
from pathlib import Path

from repro.core import AlertKind, ConventionalIPS, NaivePacketIPS, SplitDetectIPS
from repro.evasion import STRATEGIES, AttackSpec, build_attack
from repro.signatures import RuleSet, Signature, load_bundled_rules
from repro.traffic import TrafficProfile, generate_trace, inject_attacks

RESULTS_DIR = Path(__file__).resolve().parent / "results"

ATTACK_SIGNATURE = b"EVIL-PAYLOAD\x90\x90\x90\x90:exec/bin/sh"
ATTACK_OFFSET = 120


def emit(experiment: str, lines: list[str], capfd=None) -> None:
    """Print experiment rows (uncaptured) and persist them to results/."""
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n", encoding="utf-8")
    ctx = capfd.disabled() if capfd is not None else contextlib.nullcontext()
    with ctx:
        print(f"\n=== {experiment} ===", file=sys.stderr)
        print(text, file=sys.stderr)


@functools.lru_cache(maxsize=None)
def bundled_rules() -> RuleSet:
    return load_bundled_rules()


@functools.lru_cache(maxsize=4)
def benign_trace(flows: int = 300, seed: int = 2006, **profile_kw):
    profile = TrafficProfile(flows=flows, **dict(profile_kw))
    return generate_trace(profile, seed=seed)


def gauntlet_ruleset() -> RuleSet:
    rules = RuleSet()
    rules.add(Signature(sid=3001, pattern=ATTACK_SIGNATURE, msg="gauntlet target"))
    return rules


def gauntlet_payload() -> bytes:
    body = bytearray(b"Content-Filler: benign web traffic padding / " * 30)
    body[ATTACK_OFFSET : ATTACK_OFFSET + len(ATTACK_SIGNATURE)] = ATTACK_SIGNATURE
    return bytes(body)


def attack_packets(strategy_name: str, *, seed: int = 11, **conn):
    strategy = STRATEGIES[strategy_name]
    spec = AttackSpec(
        payload=gauntlet_payload(),
        rng=random.Random(seed),
        conn=conn,
        signature_span=(ATTACK_OFFSET, len(ATTACK_SIGNATURE)),
    )
    return strategy.build(spec)


def detected(alerts, sid=3001) -> bool:
    return any(
        (a.kind in (AlertKind.SIGNATURE, AlertKind.PARTIAL_SIGNATURE) and a.sid == sid)
        or a.kind is AlertKind.AMBIGUITY
        for a in alerts
    )


def run_engine(engine, packets):
    alerts = []
    for packet in packets:
        alerts.extend(engine.process(packet))
    return alerts


def run_batches(engine, packets, batch_size: int):
    """The batch route: ``process_batch`` over consecutive slices."""
    alerts = []
    for start in range(0, len(packets), batch_size):
        alerts.extend(engine.process_batch(packets[start : start + batch_size]))
    return alerts


@functools.lru_cache(maxsize=2)
def mixed_trace(flows: int = 300, seed: int = 2006):
    """Benign trace with three catalog attacks hidden in it."""
    trace = benign_trace(flows, seed)
    attacks = [
        build_attack(
            name,
            gauntlet_payload(),
            signature_span=(ATTACK_OFFSET, len(ATTACK_SIGNATURE)),
            src=f"10.66.0.{i + 1}",
            seed=i,
        )
        for i, name in enumerate(["tcp_seg_8", "ip_frag_8", "stealth_segments"])
    ]
    return inject_attacks(trace, attacks)
