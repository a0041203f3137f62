"""Self-checks of the pipeline ledger: ``pytest benchmarks/pipeline``.

Quick (1/20-size) traces only, well under 30 s.  Not part of tier-1
(``testpaths`` is ``tests/``); run it after touching anything here.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path)

import compare  # noqa: E402
import driver  # noqa: E402
import spans  # noqa: E402
import traces  # noqa: E402

SEED = 2006
QUICK_MIX = traces.SPECS["evasion_mix"].scaled(20)


@pytest.fixture(scope="module")
def mix() -> traces.Trace:
    return traces.build(QUICK_MIX, SEED)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section, capsys):
    declared = run.load_benchmark()[section]
    record = run.run_workload("small_pkt", seed=SEED, seconds=0.5, trace=trace, quick=True)
    run.report(record)
    out = capsys.readouterr().out
    for metric in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        line = rf"^small_pkt\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$"
        assert re.search(line, out, re.M), metric["name"]
    last = json.loads(out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [metric["name"] for metric in declared]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


def test_metric_names_are_used_once():
    benchmark = run.load_benchmark()
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    names += [w["name"] for w in benchmark["workloads"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in benchmark["workloads"]} == set(driver.WORKLOADS)


def test_span_arithmetic(mix):
    recorder = spans.SpanRecorder()
    result, _ = driver.traced_batch_pass(
        driver.make_spec(False), str(mix.path), mix.facts["packets"], recorder, [0]
    )
    assert result.accounting_closed()
    assert recorder.check() == []  # every child lies inside its parent
    totals = recorder.totals()
    wall = totals["run"]["total_ns"]
    assert all(row["self_ns"] >= 0 for row in totals.values())
    layered = sum(row["self_ns"] for name, row in totals.items() if name != "run")
    assert 0.9 * wall <= layered <= wall
    assert layered + totals["run"]["self_ns"] == wall  # self times partition the root
    assert totals["core.slowpath"]["calls"] == result.report.stats.slow_packets


def test_traced_pass_matches_untraced_digest(mix):
    spec = driver.make_spec(False)
    plain = driver.batch_pass(spec, str(mix.path), mix.facts["packets"], driver.CONFIG)
    traced, _ = driver.traced_batch_pass(
        spec, str(mix.path), mix.facts["packets"], spans.SpanRecorder(), [0]
    )
    assert plain.report.digest() == traced.report.digest()


def test_trace_is_a_function_of_spec_and_seed():
    spec = traces.SPECS["small_pkt"].scaled(20)
    first = traces.build(spec, 7, cache=False).facts
    again = traces.build(spec, 7, cache=False).facts
    other = traces.build(spec, 8, cache=False).facts
    assert first["sha256"] == again["sha256"] != other["sha256"]
    assert first["packets"] == other["packets"] >= spec.packets


def test_dropped_manifest_alert_raises_fail_share(mix):
    result = driver.batch_pass(
        driver.make_spec(False), str(mix.path), mix.facts["packets"], driver.CONFIG
    )
    clean = driver.score(result, mix.manifest)
    assert clean["failed"] == 0 and clean["accounting_closed"] and not clean["false_alerts"]
    victim = mix.manifest[0]["src"]
    result.report.alerts = [
        alert for alert in result.report.alerts if victim not in (alert.flow.src, alert.flow.dst)
    ]
    dropped = driver.score(result, mix.manifest)
    assert dropped["undetected"] == [victim]
    assert dropped["failed"] / dropped["attempted"] > clean["failed"] / clean["attempted"]


def test_alert_on_a_non_manifest_flow_is_incorrect(mix):
    result = driver.batch_pass(
        driver.make_spec(False), str(mix.path), mix.facts["packets"], driver.CONFIG
    )
    assert driver.score(result, mix.manifest[1:])["false_alerts"] > 0


def test_compare_reports_unresolved_when_spread_exceeds_bound():
    metric = {"name": "pps", "unit": "1/s", "better": "higher", "bound": 0.08}
    steady = {"w": {"pps": [100.0, 101.0, 99.0, 100.5, 99.5]}}
    slower = {"w": {"pps": [80.0, 81.0, 79.0, 80.5, 79.5]}}
    noisy = {"w": {"pps": [80.0, 120.0, 60.0, 100.0, 140.0]}}
    assert compare.compare(steady, steady, [metric])[0]["verdict"] == "within"
    assert compare.compare(steady, slower, [metric])[0]["verdict"] == "regressed"
    assert compare.compare(steady, noisy, [metric])[0]["verdict"] == "unresolved"
