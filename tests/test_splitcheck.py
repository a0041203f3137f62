"""Tests for the splitcheck static invariant analyzer.

Each SDxxx rule gets: fixture snippets that must flag, and near-miss
snippets (the guarded / deterministic / module-level / CPU-clock /
well-formed versions of the same code) that must pass.  A self-run
asserts the real ``core/``, ``match/``, and ``runtime/`` trees are
clean with zero baseline entries -- the invariant this PR exists to
pin.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.splitcheck import (
    Config,
    Finding,
    PragmaIndex,
    Severity,
    all_rules,
    check_paths,
    load_baseline,
    load_config,
    partition,
    write_baseline,
)
from repro.devtools.splitcheck import config as splitcheck_config
from repro.devtools.splitcheck.cli import main as splitcheck_main

# Python 3.10 has no stdlib tomllib; without a tomli fallback installed the
# analyzer skips the [tool.splitcheck] table and runs with defaults.
requires_toml = pytest.mark.skipif(
    splitcheck_config.tomllib is None,
    reason="no TOML parser available (Python < 3.11 without tomli)",
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def run_rules(
    tmp_path: Path, rel_name: str, source: str, *, select: str | None = None
) -> list[Finding]:
    """Write ``source`` under a repro-shaped tree and analyze it."""
    target = tmp_path / "repro" / rel_name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    config = Config(root=tmp_path)
    selected = frozenset({select}) if select else None
    findings, checked = check_paths([tmp_path], config, select=selected)
    assert checked == 1
    return findings


def run_tree(
    tmp_path: Path,
    files: dict[str, str],
    *,
    select: str | None = None,
    design: str | None = None,
) -> list[Finding]:
    """Write a multi-file repro-shaped tree (plus optional DESIGN.md)
    and analyze it -- the fixture shape for SD2xx project rules."""
    for rel_name, source in files.items():
        target = tmp_path / "repro" / rel_name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    if design is not None:
        (tmp_path / "DESIGN.md").write_text(design, encoding="utf-8")
    config = Config(root=tmp_path)
    selected = frozenset({select}) if select else None
    findings, _ = check_paths([tmp_path], config, select=selected)
    return findings


def rule_ids(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------------------
# SD101: hot-path telemetry guard
# ---------------------------------------------------------------------------


class TestSD101:
    def test_unguarded_inc_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
        )
        assert rule_ids(findings) == {"SD101"}
        assert findings[0].line == 3

    def test_unguarded_observe_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "match/streaming.py",
            "class M:\n"
            "    def scan(self, data):\n"
            "        self._h_latency.observe(1.0)\n",
        )
        assert rule_ids(findings) == {"SD101"}

    def test_if_guard_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "class E:\n"
            "    def process(self, pkt):\n"
            "        if self._tel_on:\n"
            "            self._c_packets.inc()\n",
        )
        assert findings == []

    def test_local_guard_variable_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "class E:\n"
            "    def process(self, pkt):\n"
            "        tel_on = self._tel_on\n"
            "        if tel_on:\n"
            "            self._h_stage.observe(2.0)\n",
        )
        assert findings == []

    def test_early_return_guard_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "streams/active.py",
            "class S:\n"
            "    def sample(self):\n"
            "        if not self._tel_on:\n"
            "            return\n"
            "        self._g_flows.set(3)\n",
        )
        assert findings == []

    def test_registry_enabled_guard_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/fastpath.py",
            "class F:\n"
            "    def track(self):\n"
            "        if self.telemetry.enabled:\n"
            "            self._c_anomaly.inc()\n",
        )
        assert findings == []

    def test_init_and_refresh_are_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/slowpath.py",
            "class S:\n"
            "    def __init__(self):\n"
            "        self._g_flows.set(0)\n"
            "    def refresh_telemetry(self):\n"
            "        self._g_flows.set(1)\n",
        )
        assert findings == []

    def test_threading_event_set_not_flagged(self, tmp_path):
        # .set() on a bare name is threading, not telemetry.
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "class E:\n"
            "    def stop(self, event):\n"
            "        event.set()\n",
        )
        assert findings == []

    def test_outside_hot_dirs_not_in_scope(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "metrics/report.py",
            "class R:\n"
            "    def tally(self):\n"
            "        self._c_runs.inc()\n",
            select="SD101",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD102: merge/digest determinism
# ---------------------------------------------------------------------------


class TestSD102:
    def test_wall_clock_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "import time\n\ndef merge():\n    return time.time()\n",
        )
        assert rule_ids(findings) == {"SD102"}

    def test_random_call_flags(self, tmp_path):
        # The import alone is fine now (the seeded-instance idiom is
        # allowed); module-level random functions still flag.
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "import random\n\ndef merge(xs):\n    return random.choice(xs)\n",
        )
        assert {"SD102"} == rule_ids(findings)
        assert len(findings) == 1

    def test_unseeded_random_instance_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "import random\n\ndef merge():\n    return random.Random()\n",
        )
        assert rule_ids(findings) == {"SD102"}

    def test_seeded_random_instance_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "import random\n\n"
            "def merge(seed):\n"
            "    a = random.Random(99)\n"
            "    b = random.Random(seed)\n"
            "    return a, b\n",
        )
        assert findings == []

    def test_secrets_import_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "import secrets\n\ndef tok():\n    return secrets.token_hex(8)\n",
        )
        assert rule_ids(findings) == {"SD102"}
        assert len(findings) == 2  # the import and the call

    def test_datetime_now_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "from datetime import datetime\n\n"
            "def stamp():\n    return datetime.now()\n",
        )
        assert rule_ids(findings) == {"SD102"}

    def test_set_iteration_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "def merge(shards):\n"
            "    out = []\n"
            "    for shard in set(shards):\n"
            "        out.append(shard)\n"
            "    return out\n",
        )
        assert rule_ids(findings) == {"SD102"}

    def test_keys_iteration_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "def merge(reasons):\n"
            "    return [k for k in reasons.keys()]\n",
        )
        assert rule_ids(findings) == {"SD102"}

    def test_sorted_set_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "def merge(shards, reasons):\n"
            "    a = [s for s in sorted(set(shards))]\n"
            "    b = [k for k in sorted(reasons.keys())]\n"
            "    return a + b\n",
        )
        assert findings == []

    def test_packet_timestamp_arithmetic_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "def merge(alerts):\n"
            "    return sorted(alerts, key=lambda a: a.timestamp)\n",
        )
        assert findings == []

    def test_items_iteration_passes(self, tmp_path):
        # dict insertion order is deterministic per shard; only set order
        # and .keys() of rebuilt dicts are digest hazards.
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "def merge(reasons):\n"
            "    return {k: v for k, v in reasons.items()}\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD103: shard safety
# ---------------------------------------------------------------------------


class TestSD103:
    def test_lambda_to_queue_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "def feed(queue):\n    queue.put(lambda b: b)\n",
        )
        assert rule_ids(findings) == {"SD103"}

    def test_closure_to_queue_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "def feed(queue):\n"
            "    def handler(batch):\n"
            "        return batch\n"
            "    queue.put_nowait(handler)\n",
        )
        assert rule_ids(findings) == {"SD103"}

    def test_lambda_through_enqueue_helper_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "def feed(enqueue, seat):\n    enqueue(seat, lambda b: b)\n",
        )
        assert rule_ids(findings) == {"SD103"}

    def test_lambda_process_target_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "from multiprocessing import Process\n\n"
            "def launch():\n"
            "    return Process(target=lambda: None)\n",
        )
        assert rule_ids(findings) == {"SD103"}

    def test_bound_method_target_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "from multiprocessing import Process\n\n"
            "class Runner:\n"
            "    def launch(self):\n"
            "        return Process(target=self.work)\n",
        )
        assert rule_ids(findings) == {"SD103"}

    def test_module_level_target_and_data_pass(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "from multiprocessing import Process\n\n"
            "def worker_main(spec, queue):\n"
            "    pass\n\n"
            "def launch(spec, queue, batch):\n"
            "    queue.put(batch)\n"
            "    queue.put(None)\n"
            "    return Process(target=worker_main, args=(spec, queue))\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD104: timing discipline
# ---------------------------------------------------------------------------


class TestSD104:
    def test_wall_clock_busy_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "from time import perf_counter_ns\n\n"
            "class Shard:\n"
            "    def feed(self, batch):\n"
            "        t0 = perf_counter_ns()\n"
            "        self.busy_ns += perf_counter_ns() - t0\n",
        )
        assert rule_ids(findings) == {"SD104"}

    def test_tainted_local_busy_flags(self, tmp_path):
        # the wall clock reaches busy_ns only through the local t0
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "from time import monotonic_ns\n\n"
            "class Shard:\n"
            "    def feed(self, batch):\n"
            "        t0 = monotonic_ns()\n"
            "        work(batch)\n"
            "        self.busy_ns += compute() - t0\n",
        )
        assert rule_ids(findings) == {"SD104"}

    def test_cpu_clock_wall_keyword_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/serial.py",
            "from time import process_time\n\n"
            "def run(report_cls, start):\n"
            "    return report_cls(wall_seconds=process_time() - start)\n",
        )
        assert rule_ids(findings) == {"SD104"}

    def test_correct_clock_families_pass(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "from time import perf_counter, process_time_ns\n\n"
            "class Shard:\n"
            "    def feed(self, batch, report_cls):\n"
            "        t0 = process_time_ns()\n"
            "        work(batch)\n"
            "        self.busy_ns += process_time_ns() - t0\n"
            "        start = perf_counter()\n"
            "        return report_cls(wall_seconds=perf_counter() - start)\n",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD105: packet-layer byte hygiene
# ---------------------------------------------------------------------------


class TestSD105:
    def test_str_bytes_concat_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/tcp.py",
            "def build():\n    return b'host' + 'name'\n",
        )
        assert rule_ids(findings) == {"SD105"}

    def test_str_bytes_comparison_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/ip.py",
            "def check():\n    return b'GET' == 'GET'\n",
        )
        assert rule_ids(findings) == {"SD105"}

    def test_invalid_format_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/udp.py",
            "import struct\n\nFMT = struct.Struct('!ZZ')\n",
        )
        assert rule_ids(findings) == {"SD105"}

    def test_pack_arity_mismatch_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/udp.py",
            "import struct\n\n"
            "def build(a, b):\n"
            "    return struct.pack('!HHH', a, b)\n",
        )
        assert rule_ids(findings) == {"SD105"}

    def test_bound_struct_arity_mismatch_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/tcp.py",
            "import struct\n\n"
            "_HDR = struct.Struct('!HHI')\n\n"
            "def build(a, b):\n"
            "    return _HDR.pack(a, b)\n",
        )
        assert rule_ids(findings) == {"SD105"}

    def test_str_into_bytes_field_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/ether.py",
            "import struct\n\n"
            "def build():\n"
            "    return struct.pack('!4s', 'abcd')\n",
        )
        assert rule_ids(findings) == {"SD105"}

    def test_well_formed_packing_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/tcp.py",
            "import struct\n\n"
            "_HDR = struct.Struct('!HHI')\n\n"
            "def build(sport, dport, seq, payload):\n"
            "    if payload == b'GET':\n"
            "        pass\n"
            "    return _HDR.pack(sport, dport, seq) + struct.pack('!4s', b'abcd')\n",
        )
        assert findings == []

    def test_repeat_and_pad_codes_counted(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "packet/ip.py",
            "import struct\n\n"
            "def build(a, b, c):\n"
            "    return struct.pack('!2Hxx4s', a, b, c)\n",  # 2H=2 + 4s=1 -> 3 ok
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD106: worker status discipline
# ---------------------------------------------------------------------------


class TestSD106:
    def test_silent_return_in_handler_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "def shard_worker_main(shard, in_queue, out_queue):\n"
            "    try:\n"
            "        batch = in_queue.get()\n"
            "    except Exception:\n"
            "        return\n"
            "    out_queue.put(('ok', shard, 0, batch))\n",
        )
        assert rule_ids(findings) == {"SD106"}

    def test_silent_os_exit_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "import os\n\n"
            "def shard_worker_main(shard, in_queue, out_queue):\n"
            "    try:\n"
            "        batch = in_queue.get()\n"
            "    except Exception:\n"
            "        os._exit(1)\n"
            "    out_queue.put(('ok', shard, 0, batch))\n",
        )
        assert rule_ids(findings) == {"SD106"}

    def test_put_before_return_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "def shard_worker_main(shard, in_queue, out_queue):\n"
            "    try:\n"
            "        batch = in_queue.get()\n"
            "    except Exception as exc:\n"
            "        out_queue.put(('error', shard, 0, str(exc)))\n"
            "        return\n"
            "    out_queue.put(('ok', shard, 0, batch))\n",
        )
        assert findings == []

    def test_reraise_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "def shard_worker_main(shard, in_queue, out_queue):\n"
            "    try:\n"
            "        batch = in_queue.get()\n"
            "    except Exception:\n"
            "        raise\n"
            "    out_queue.put(('ok', shard, 0, batch))\n",
        )
        assert findings == []

    def test_handler_that_continues_is_exempt(self, tmp_path):
        """A handler that swallows and keeps looping is not an exit."""
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "def shard_worker_main(shard, in_queue, out_queue):\n"
            "    while True:\n"
            "        try:\n"
            "            batch = in_queue.get()\n"
            "        except Exception:\n"
            "            continue\n"
            "        out_queue.put(('ok', shard, 0, batch))\n",
        )
        assert findings == []

    def test_functions_without_out_queue_exempt(self, tmp_path):
        """Engine-side helpers (no out_queue param) may return silently."""
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "def feed(processor, batch):\n"
            "    try:\n"
            "        processor.feed(batch)\n"
            "    except ValueError:\n"
            "        return\n",
        )
        assert findings == []

    def test_scoped_to_worker_modules(self, tmp_path):
        """The rule's default paths only cover runtime/worker*.py."""
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "def pump(batches, out_queue):\n"
            "    try:\n"
            "        out_queue.get()\n"
            "    except Exception:\n"
            "        return\n",
        )
        assert "SD106" not in rule_ids(findings)


# ---------------------------------------------------------------------------
# SD107: trace/journal emission guard
# ---------------------------------------------------------------------------


class TestSD107:
    def test_unguarded_tracer_record_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self.tracer.record(pkt.flow, 'fast', 'anomaly', pkt.ts)\n",
            select="SD107",
        )
        assert rule_ids(findings) == {"SD107"}
        assert findings[0].line == 3

    def test_unguarded_record_system_flags(self, tmp_path):
        # SD101's instrument set deliberately omits record_system; SD107
        # must cover it or system spans dodge the guard discipline.
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "class W:\n"
            "    def drain(self, batch):\n"
            "        self.tracer.record_system('runtime', 'quarantine')\n",
            select="SD107",
        )
        assert rule_ids(findings) == {"SD107"}

    def test_unguarded_journal_event_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "class W:\n"
            "    def drain(self, batch):\n"
            "        self.registry.journal.event('divert', flow='x')\n",
            select="SD107",
        )
        assert rule_ids(findings) == {"SD107"}

    def test_trace_enabled_guard_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/fastpath.py",
            "class F:\n"
            "    def track(self, pkt):\n"
            "        if self._trace_enabled:\n"
            "            self.tracer.record(pkt.flow, 'fast', 'anomaly', pkt.ts)\n",
            select="SD107",
        )
        assert findings == []

    def test_early_return_guard_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "class W:\n"
            "    def drain(self, batch):\n"
            "        if not self._trace_enabled:\n"
            "            return\n"
            "        self.tracer.record_system('runtime', 'quarantine')\n",
            select="SD107",
        )
        assert findings == []

    def test_tracer_enabled_attribute_guard_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/slowpath.py",
            "class S:\n"
            "    def process(self, pkt):\n"
            "        if self.tracer.enabled:\n"
            "            self.tracer.record(pkt.flow, 'slow', 'reassemble', pkt.ts)\n",
            select="SD107",
        )
        assert findings == []

    def test_non_tracer_record_not_flagged(self, tmp_path):
        # Near miss: a .record() on something that is not a tracer or
        # journal (e.g. the fast path's anomaly monitor) is SD101's
        # business, not SD107's.
        findings = run_rules(
            tmp_path,
            "core/fastpath.py",
            "class F:\n"
            "    def track(self, pkt):\n"
            "        self.monitor.record(pkt.seq)\n",
            select="SD107",
        )
        assert findings == []

    def test_tracer_construction_exempt(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "class W:\n"
            "    def __init__(self, tracer):\n"
            "        self.tracer = tracer\n"
            "        self.tracer.record_system('runtime', 'start')\n",
            select="SD107",
        )
        assert findings == []

    def test_null_tracer_class_record_exempt(self, tmp_path):
        # The tracer's own record() definition is not a call site.
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "class NullTracer:\n"
            "    def record(self, flow, stage, event, ts):\n"
            "        pass\n",
            select="SD107",
        )
        assert findings == []

    def test_covers_runtime_unlike_sd101(self, tmp_path):
        # SD101's default paths stop at core/match/streams; the worker
        # loop's emissions are exactly what SD107 adds.
        findings = run_rules(
            tmp_path,
            "runtime/worker.py",
            "class W:\n"
            "    def drain(self, batch):\n"
            "        self.tracer.record(batch.flow, 'runtime', 'drain', 0.0)\n",
        )
        assert "SD107" in rule_ids(findings)
        assert "SD101" not in rule_ids(findings)


# ---------------------------------------------------------------------------
# SD108: blocking calls in service/ must carry timeouts
# ---------------------------------------------------------------------------


class TestSD108:
    def test_queue_get_without_timeout_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "class S:\n"
            "    def poll(self):\n"
            "        return self._queue.get()\n",
            select="SD108",
        )
        assert rule_ids(findings) == {"SD108"}
        assert findings[0].line == 3

    def test_queue_put_without_timeout_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "def hand_off(out_queue, record):\n"
            "    out_queue.put(record)\n",
            select="SD108",
        )
        assert rule_ids(findings) == {"SD108"}

    def test_queue_get_with_timeout_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "class S:\n"
            "    def poll(self, timeout):\n"
            "        return self._queue.get(timeout=timeout)\n",
            select="SD108",
        )
        assert findings == []

    def test_nowait_and_nonblocking_variants_pass(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "class S:\n"
            "    def drain(self):\n"
            "        self._queue.put_nowait(1)\n"
            "        self._queue.get(block=False)\n"
            "        return self._queue.get_nowait()\n",
            select="SD108",
        )
        assert findings == []

    def test_dict_get_is_not_a_queue(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/lifecycle.py",
            "def backlog(state):\n"
            "    return state.get('backlog_fraction', 0.0)\n",
            select="SD108",
        )
        assert findings == []

    def test_recv_without_settimeout_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "class Reader:\n"
            "    def read(self, conn, n):\n"
            "        return conn.recv(n)\n",
            select="SD108",
        )
        assert rule_ids(findings) == {"SD108"}

    def test_recv_in_class_with_settimeout_passes(self, tmp_path):
        # The established pattern: the loop entry arms the timeout once,
        # helpers below it poll under that bound.
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "class Reader:\n"
            "    def attach(self, conn):\n"
            "        conn.settimeout(0.2)\n"
            "        self.conn = conn\n"
            "    def read(self, n):\n"
            "        return self.conn.recv(n)\n",
            select="SD108",
        )
        assert findings == []

    def test_accept_without_settimeout_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "def serve(listener):\n"
            "    conn, peer = listener.accept()\n"
            "    return conn\n",
            select="SD108",
        )
        assert rule_ids(findings) == {"SD108"}

    def test_thread_join_without_timeout_flags(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "def close(threads):\n"
            "    for thread in threads:\n"
            "        thread.join()\n",
            select="SD108",
        )
        assert rule_ids(findings) == {"SD108"}

    def test_thread_join_with_timeout_passes(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "service/sources.py",
            "def close(threads):\n"
            "    for thread in threads:\n"
            "        thread.join(timeout=2.0)\n",
            select="SD108",
        )
        assert findings == []

    def test_scoped_to_service_only(self, tmp_path):
        # The runner's blocking queue puts are its lossless-backpressure
        # feature; SD108 must not fire outside service/.
        findings = run_rules(
            tmp_path,
            "runtime/parallel.py",
            "def feed(in_queue, batch):\n"
            "    in_queue.put(batch)\n",
            select="SD108",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Framework: pragmas, baseline, config, CLI
# ---------------------------------------------------------------------------


class TestFramework:
    def test_line_pragma_suppresses_named_rule(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()  # splitcheck: ignore[SD101]\n",
        )
        assert findings == []

    def test_bare_pragma_suppresses_everything(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "runtime/report.py",
            "import time\n\n"
            "def merge():\n"
            "    return time.time()  # splitcheck: ignore\n",
        )
        assert findings == []

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()  # splitcheck: ignore[SD105]\n",
        )
        assert rule_ids(findings) == {"SD101"}

    def test_skip_file_pragma(self, tmp_path):
        findings = run_rules(
            tmp_path,
            "core/engine.py",
            "# splitcheck: skip-file\n"
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
        )
        assert findings == []

    def test_pragma_index_parsing(self):
        index = PragmaIndex(
            "x = 1  # splitcheck: ignore[SD101, SD102]\n"
            "y = 2  # splitcheck: ignore\n"
        )
        assert index.ignores(1, "SD101") and index.ignores(1, "sd102")
        assert not index.ignores(1, "SD105")
        assert index.ignores(2, "SD105")
        assert not index.ignores(3, "SD101")

    def test_baseline_roundtrip_and_partition(self, tmp_path):
        target = tmp_path / "repro" / "core" / "engine.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
            encoding="utf-8",
        )
        config = Config(root=tmp_path)
        findings, _ = check_paths([tmp_path], config)
        assert len(findings) == 1

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        fresh, known = partition(findings, baseline)
        assert fresh == [] and len(known) == 1

        # fingerprints survive pure line shifts ...
        target.write_text(
            "import os\n\n\n"
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
            encoding="utf-8",
        )
        shifted, _ = check_paths([tmp_path], config)
        fresh, known = partition(shifted, baseline)
        assert fresh == [] and len(known) == 1

        # ... but not content changes on the flagged line
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_other_counter.inc()\n",
            encoding="utf-8",
        )
        changed, _ = check_paths([tmp_path], config)
        fresh, known = partition(changed, baseline)
        assert len(fresh) == 1 and known == []

    @requires_toml
    def test_pyproject_config_loading(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.splitcheck]\n"
            'baseline = "base.json"\n'
            'exclude = ["*/generated/*"]\n'
            'disable = ["SD105"]\n'
            "[tool.splitcheck.rules.SD101]\n"
            'paths = ["*/custom/*.py"]\n'
            'severity = "warning"\n',
            encoding="utf-8",
        )
        config = load_config(tmp_path)
        assert config.baseline == "base.json"
        assert config.baseline_path == tmp_path / "base.json"
        assert config.exclude == ("*/generated/*",)
        assert config.disable == frozenset({"SD105"})
        rule = config.rule_config("sd101")
        assert rule.paths == ("*/custom/*.py",)
        assert rule.severity == "warning"

    @requires_toml
    def test_disabled_rule_does_not_run(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.splitcheck]\ndisable = ["SD101"]\n', encoding="utf-8"
        )
        target = tmp_path / "repro" / "core" / "engine.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
            encoding="utf-8",
        )
        findings, _ = check_paths([tmp_path], load_config(tmp_path))
        assert findings == []

    @requires_toml
    def test_severity_override_downgrades_exit_code(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.splitcheck.rules.SD101]\nseverity = "warning"\n',
            encoding="utf-8",
        )
        target = tmp_path / "repro" / "core" / "engine.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
            encoding="utf-8",
        )
        findings, _ = check_paths([tmp_path], load_config(tmp_path))
        assert len(findings) == 1
        assert findings[0].severity is Severity.WARNING
        # warnings do not fail the run unless --strict-warnings
        assert splitcheck_main([str(target), "--root", str(tmp_path)]) == 0
        assert (
            splitcheck_main(
                [str(target), "--root", str(tmp_path), "--strict-warnings"]
            )
            == 1
        )

    def test_syntax_error_becomes_sd000(self, tmp_path):
        target = tmp_path / "repro" / "core" / "broken.py"
        target.parent.mkdir(parents=True)
        target.write_text("def broken(:\n", encoding="utf-8")
        findings, _ = check_paths([tmp_path], Config(root=tmp_path))
        assert rule_ids(findings) == {"SD000"}

    def test_all_rules_registered(self):
        assert set(all_rules()) == {
            "SD101",
            "SD102",
            "SD103",
            "SD104",
            "SD105",
            "SD106",
            "SD107",
            "SD108",
            "SD201",
            "SD202",
            "SD203",
            "SD204",
        }

    def test_every_rule_has_flag_and_near_miss_fixtures(self):
        """Meta-test: each registered SDxxx rule keeps at least one
        fixture that must flag and one near-miss that must pass."""
        module = sys.modules[__name__]
        for rule_id in all_rules():
            cls = getattr(module, f"Test{rule_id}", None)
            assert cls is not None, f"no Test{rule_id} fixture class"
            names = [name for name in vars(cls) if name.startswith("test_")]
            assert any("flag" in name for name in names), (
                f"{rule_id} has no flagging fixture"
            )
            assert any(
                "pass" in name or "exempt" in name for name in names
            ), f"{rule_id} has no near-miss (passing) fixture"


class TestCli:
    def write_bad_file(self, tmp_path: Path) -> Path:
        target = tmp_path / "repro" / "core" / "engine.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
            encoding="utf-8",
        )
        return target

    def test_exit_codes(self, tmp_path, capsys):
        target = self.write_bad_file(tmp_path)
        assert splitcheck_main([str(target), "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SD101" in out and "1 new finding" in out

    def test_json_output(self, tmp_path, capsys):
        target = self.write_bad_file(tmp_path)
        code = splitcheck_main([str(target), "--root", str(tmp_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked_files"] == 1
        assert payload["new"][0]["rule"] == "SD101"
        assert payload["new"][0]["fingerprint"]
        assert payload["baselined"] == []

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        target = self.write_bad_file(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            splitcheck_main(
                [
                    str(target),
                    "--root",
                    str(tmp_path),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            splitcheck_main(
                [str(target), "--root", str(tmp_path), "--baseline", str(baseline)]
            )
            == 0
        )
        assert "1 baselined" in capsys.readouterr().out

    def test_select_unknown_rule_is_usage_error(self, tmp_path):
        target = self.write_bad_file(tmp_path)
        assert (
            splitcheck_main(
                [str(target), "--root", str(tmp_path), "--select", "SD999"]
            )
            == 2
        )

    def test_missing_path_is_usage_error(self, tmp_path):
        assert (
            splitcheck_main(
                [str(tmp_path / "nope.py"), "--root", str(tmp_path)]
            )
            == 2
        )

    def test_list_rules(self, capsys):
        assert splitcheck_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SD101", "SD102", "SD103", "SD104", "SD105", "SD106"):
            assert rule_id in out

    def test_splitdetect_check_subcommand(self, tmp_path):
        """The ``splitdetect check`` wiring reaches the same engine."""
        from repro.cli import main as repro_main

        target = self.write_bad_file(tmp_path)
        assert repro_main(["check", str(target), "--root", str(tmp_path)]) == 1
        assert (
            repro_main(
                ["check", str(target), "--root", str(tmp_path), "--no-baseline",
                 "--select", "SD102"]
            )
            == 0
        )

    def test_module_entry_point(self, tmp_path):
        target = self.write_bad_file(tmp_path)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.splitcheck",
                str(target),
                "--root",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "SD101" in proc.stdout


# ---------------------------------------------------------------------------
# SD201: metric/span registry (project rule)
# ---------------------------------------------------------------------------


class TestSD201:
    def test_malformed_metric_name_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {"core/fast.py": 'C = registry.counter("bad-name", "desc")\n'},
            select="SD201",
        )
        assert rule_ids(findings) == {"SD201"}
        assert "convention" in findings[0].message

    def test_unknown_subsystem_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "core/fast.py": (
                    'C = registry.counter("repro_wizard_packets_total", "d")\n'
                )
            },
            select="SD201",
        )
        assert rule_ids(findings) == {"SD201"}
        assert "unknown subsystem" in findings[0].message

    def test_kind_conflict_across_files_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "core/a.py": 'C = reg.counter("repro_engine_things_total", "d")\n',
                "core/b.py": 'G = reg.gauge("repro_engine_things_total", "d")\n',
            },
            select="SD201",
        )
        assert rule_ids(findings) == {"SD201"}
        assert "one name, one" in findings[0].message

    def test_undocumented_and_orphaned_rows_flag(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "core/a.py": (
                    'GOOD = reg.counter("repro_engine_good_total", "d")\n'
                    'EXTRA = reg.counter("repro_engine_extra_total", "d")\n'
                )
            },
            select="SD201",
            design=(
                "| `repro_engine_good_total` | counter | core |\n"
                "| `repro_engine_ghost_total` | gauge | core |\n"
            ),
        )
        assert rule_ids(findings) == {"SD201"}
        messages = sorted(f.message for f in findings)
        assert len(findings) == 2
        assert any("not documented" in m for m in messages)
        assert any("orphaned" in m for m in messages)
        assert {f.path for f in findings} == {"repro/core/a.py", "DESIGN.md"}

    def test_documented_kind_mismatch_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {"core/a.py": 'G = reg.gauge("repro_engine_depth_total", "d")\n'},
            select="SD201",
            design="| `repro_engine_depth_total` | counter | core |\n",
        )
        assert len(findings) == 1
        assert "says counter but the code registers a gauge" in findings[0].message

    def test_documented_metrics_and_spans_pass(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "core/a.py": (
                    'C = reg.counter("repro_engine_good_total", "d")\n'
                    "def route(tracer, flow):\n"
                    '    tracer.record(flow, "decode", "fast_route")\n'
                )
            },
            select="SD201",
            design=(
                "| `repro_engine_good_total` | counter | core |\n"
                "| `decode:fast_route` | span | core |\n"
            ),
        )
        assert findings == []

    def test_no_design_doc_skips_registry_checks(self, tmp_path):
        # Convention checks still run; documentation checks need the doc.
        findings = run_tree(
            tmp_path,
            {"core/a.py": 'C = reg.counter("repro_engine_lone_total", "d")\n'},
            select="SD201",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD202: worker wire-protocol exhaustiveness (project rule)
# ---------------------------------------------------------------------------

WORKER_OK = (
    "def work(shard, out_queue):\n"
    '    out_queue.put(("ok", shard, 0, None))\n'
    '    out_queue.put(("error", shard, 0, "boom"))\n'
)

PUMP_OK = (
    "def pump(out_queue):\n"
    "    kind, shard, n, payload = out_queue.get()\n"
    '    if kind == "ok":\n'
    "        return payload\n"
    '    elif kind == "error":\n'
    "        raise RuntimeError(payload)\n"
)


class TestSD202:
    def test_emitted_kind_without_handler_flags(self, tmp_path):
        worker = WORKER_OK + '    out_queue.put(("stats", shard, 0, None))\n'
        findings = run_tree(
            tmp_path,
            {"runtime/worker.py": worker, "runtime/parallel.py": PUMP_OK},
            select="SD202",
        )
        assert rule_ids(findings) == {"SD202"}
        assert len(findings) == 1
        assert "stats" in findings[0].message
        assert findings[0].path == "repro/runtime/worker.py"

    def test_dead_handler_arm_flags(self, tmp_path):
        pump = PUMP_OK + (
            '    elif kind == "retired":\n'
            "        return None\n"
        )
        findings = run_tree(
            tmp_path,
            {"runtime/worker.py": WORKER_OK, "runtime/parallel.py": pump},
            select="SD202",
        )
        assert rule_ids(findings) == {"SD202"}
        assert "retired" in findings[0].message
        assert findings[0].path == "repro/runtime/parallel.py"

    def test_arity_mismatch_flags(self, tmp_path):
        worker = (
            "def work(shard, out_queue):\n"
            '    out_queue.put(("ok", shard))\n'
            '    out_queue.put(("error", shard, 0, "boom"))\n'
        )
        findings = run_tree(
            tmp_path,
            {"runtime/worker.py": worker, "runtime/parallel.py": PUMP_OK},
            select="SD202",
        )
        assert rule_ids(findings) == {"SD202"}
        assert any(
            "puts 2-tuples" in f.message and "unpacks 4-tuples" in f.message
            for f in findings
        )

    def test_matching_protocol_passes(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {"runtime/worker.py": WORKER_OK, "runtime/parallel.py": PUMP_OK},
            select="SD202",
        )
        assert findings == []

    def test_silent_when_either_side_absent(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {"runtime/worker.py": WORKER_OK},
            select="SD202",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD203: sequence-number arithmetic discipline (project rule)
# ---------------------------------------------------------------------------


class TestSD203:
    def test_raw_add_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {"core/seqmath.py": "def advance(seq, n):\n    return seq + n\n"},
            select="SD203",
        )
        assert rule_ids(findings) == {"SD203"}
        assert "seq_add" in findings[0].message

    def test_augmented_and_compare_flag(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "core/seqmath.py": (
                    "def bump(seq, ack):\n"
                    "    if seq < ack:\n"
                    "        seq += 1\n"
                    "    return seq\n"
                )
            },
            select="SD203",
        )
        assert rule_ids(findings) == {"SD203"}
        assert len(findings) == 2

    def test_helpers_and_explicit_mod_pass(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "core/seqmath.py": (
                    "from repro.packet.tcp import seq_add, seq_diff\n"
                    "def advance(seq, n):\n"
                    "    return seq_add(seq, n)\n"
                    "def span(end_seq, start_seq):\n"
                    "    return seq_diff(end_seq, start_seq)\n"
                    "def wrap(seq):\n"
                    "    return (seq + 1) % 2**32\n"
                )
            },
            select="SD203",
        )
        assert findings == []

    def test_untainted_names_pass(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "core/seqmath.py": (
                    "def total(size, count):\n"
                    "    return size + count\n"
                    "def grown(seq_len):\n"
                    "    return seq_len + 1\n"
                )
            },
            select="SD203",
        )
        assert findings == []

    def test_out_of_scope_dirs_pass(self, tmp_path):
        # The discipline is scoped to core/, streams/, packet/.
        findings = run_tree(
            tmp_path,
            {"analysis/plots.py": "def advance(seq, n):\n    return seq + n\n"},
            select="SD203",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SD204: resource lifecycle (project rule)
# ---------------------------------------------------------------------------


class TestSD204:
    def test_self_socket_without_close_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "service/listener.py": (
                    "import socket\n"
                    "class Listener:\n"
                    "    def start(self):\n"
                    "        self.sock = socket.socket()\n"
                )
            },
            select="SD204",
        )
        assert rule_ids(findings) == {"SD204"}
        assert "self.sock" in findings[0].message

    def test_local_never_closed_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "service/probe.py": (
                    "import socket\n"
                    "def probe(addr):\n"
                    "    sock = socket.socket()\n"
                    "    sock.connect(addr)\n"
                )
            },
            select="SD204",
        )
        assert rule_ids(findings) == {"SD204"}
        assert "never closed" in findings[0].message

    def test_leaky_return_before_close_flags(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "service/probe.py": (
                    "import socket\n"
                    "def probe(addr, dry):\n"
                    "    sock = socket.socket()\n"
                    "    if dry:\n"
                    "        return 0\n"
                    "    sock.close()\n"
                    "    return 1\n"
                )
            },
            select="SD204",
        )
        assert rule_ids(findings) == {"SD204"}
        assert "leak" in findings[0].message

    def test_with_finally_close_and_escape_pass(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "service/clean.py": (
                    "import socket\n"
                    "def scoped(addr):\n"
                    "    with socket.socket() as sock:\n"
                    "        sock.connect(addr)\n"
                    "def guarded(addr):\n"
                    "    sock = socket.socket()\n"
                    "    try:\n"
                    "        sock.connect(addr)\n"
                    "    finally:\n"
                    "        sock.close()\n"
                    "def handoff(pool):\n"
                    "    sock = socket.socket()\n"
                    "    pool.append(sock)\n"
                    "class Owner:\n"
                    "    def start(self):\n"
                    "        self.sock = socket.socket()\n"
                    "    def stop(self):\n"
                    "        self.sock.close()\n"
                )
            },
            select="SD204",
        )
        assert findings == []

    def test_out_of_scope_dirs_pass(self, tmp_path):
        findings = run_tree(
            tmp_path,
            {
                "analysis/grab.py": (
                    "import socket\n"
                    "def probe(addr):\n"
                    "    sock = socket.socket()\n"
                    "    sock.connect(addr)\n"
                )
            },
            select="SD204",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# Project infrastructure: cache, graph dump, output formats, scoping
# ---------------------------------------------------------------------------


class TestCache:
    def bad_file(self, tmp_path: Path) -> Path:
        target = tmp_path / "repro" / "core" / "engine.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
            encoding="utf-8",
        )
        return target

    def test_warm_run_is_finding_transparent(self, tmp_path):
        self.bad_file(tmp_path)
        cache = tmp_path / "cache.json"
        cold, _ = check_paths(
            [tmp_path], Config(root=tmp_path), cache_path=cache
        )
        assert cache.exists()
        warm, _ = check_paths(
            [tmp_path], Config(root=tmp_path), cache_path=cache
        )
        assert [f.to_dict() for f in cold] == [f.to_dict() for f in warm]
        assert rule_ids(cold) == {"SD101"}

    def test_content_edit_invalidates_entry(self, tmp_path):
        target = self.bad_file(tmp_path)
        cache = tmp_path / "cache.json"
        cold, _ = check_paths(
            [tmp_path], Config(root=tmp_path), cache_path=cache
        )
        assert cold
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        if self.tel_on:\n"
            "            self._c_packets.inc()\n",
            encoding="utf-8",
        )
        fixed, _ = check_paths(
            [tmp_path], Config(root=tmp_path), cache_path=cache
        )
        assert fixed == []

    def test_signature_mismatch_resets_cache(self, tmp_path):
        from repro.devtools.splitcheck import FactsCache
        from repro.devtools.splitcheck.cache import fingerprint
        from repro.devtools.splitcheck.facts import extract_facts
        import ast as ast_mod

        source = "X = 1\n"
        facts = extract_facts(
            "repro/core/x.py", ast_mod.parse(source), source
        )
        path = tmp_path / "cache.json"
        first = FactsCache(path, "signature-a")
        first.put("repro/core/x.py", fingerprint(source.encode()), facts, [])
        first.write()
        same = FactsCache(path, "signature-a")
        assert same.get("repro/core/x.py", fingerprint(source.encode()))
        other = FactsCache(path, "signature-b")
        assert other.get("repro/core/x.py", fingerprint(source.encode())) is None

    def test_prune_drops_departed_files(self, tmp_path):
        self.bad_file(tmp_path)
        cache = tmp_path / "cache.json"
        check_paths([tmp_path], Config(root=tmp_path), cache_path=cache)
        entries = json.loads(cache.read_text(encoding="utf-8"))["files"]
        assert "repro/core/engine.py" in entries
        (tmp_path / "repro" / "core" / "engine.py").unlink()
        check_paths([tmp_path], Config(root=tmp_path), cache_path=cache)
        entries = json.loads(cache.read_text(encoding="utf-8"))["files"]
        assert entries == {}


class TestProjectCli:
    def bad_file(self, tmp_path: Path) -> Path:
        target = tmp_path / "repro" / "core" / "engine.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "class E:\n"
            "    def process(self, pkt):\n"
            "        self._c_packets.inc()\n",
            encoding="utf-8",
        )
        return target

    def test_graph_dump(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core" / "fast.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "from repro.packet.tcp import seq_add\n"
            'C = reg.counter("repro_engine_x_total", "d")\n'
            "def hot(seq):\n"
            "    return seq_add(seq, 1)\n",
            encoding="utf-8",
        )
        code = splitcheck_main(
            [str(tmp_path), "--root", str(tmp_path), "--graph"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["files"]["repro/core/fast.py"]
        assert entry["module"] == "repro.core.fast"
        assert entry["imports"]["seq_add"] == "repro.packet.tcp.seq_add"
        assert entry["metrics"][0]["name"] == "repro_engine_x_total"
        assert [f["name"] for f in entry["functions"]] == ["hot"]

    def test_github_output_format(self, tmp_path, capsys):
        target = self.bad_file(tmp_path)
        code = splitcheck_main(
            [
                str(target),
                "--root",
                str(tmp_path),
                "--output-format",
                "github",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=SD101" in out

    @requires_toml
    def test_per_rule_exclude_carves_file_out(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.splitcheck.rules.SD101]\n"
            'exclude = ["*/core/engine.py"]\n',
            encoding="utf-8",
        )
        target = self.bad_file(tmp_path)
        findings, _ = check_paths([tmp_path], load_config(tmp_path))
        assert findings == []
        # Without the carve-out the same file flags.
        findings, _ = check_paths([tmp_path], Config(root=tmp_path))
        assert rule_ids(findings) == {"SD101"}

    def test_no_cache_flag_leaves_no_file(self, tmp_path):
        target = self.bad_file(tmp_path)
        assert (
            splitcheck_main(
                [str(target), "--root", str(tmp_path), "--no-cache"]
            )
            == 1
        )
        assert not (tmp_path / ".splitcheck-cache.json").exists()

    def test_default_cache_written_at_root(self, tmp_path):
        target = self.bad_file(tmp_path)
        assert splitcheck_main([str(target), "--root", str(tmp_path)]) == 1
        assert (tmp_path / ".splitcheck-cache.json").exists()


class TestMypyRatchet:
    @requires_toml
    def test_override_list_parsing(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from check_mypy_ratchet import override_modules
        finally:
            sys.path.pop(0)
        text = (
            "[tool.mypy]\nstrict = true\n"
            "[[tool.mypy.overrides]]\n"
            'module = ["repro.core.*", "repro.cli"]\n'
            "disallow_untyped_defs = false\n"
        )
        assert override_modules(text) == ["repro.core.*", "repro.cli"]
        assert override_modules("[tool.mypy]\nstrict = true\n") is None

    @requires_toml
    def test_current_repo_passes_ratchet(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_mypy_ratchet.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# Self-run: the real tree must be clean
# ---------------------------------------------------------------------------


class TestSelfRun:
    def test_core_match_runtime_service_clean_with_zero_baseline(self):
        """The acceptance invariant: hot-path dirs clean (including the
        SD2xx project pass), baseline empty."""
        config = load_config(REPO_ROOT)
        findings, checked = check_paths(
            [SRC / "core", SRC / "match", SRC / "runtime", SRC / "service"],
            config,
        )
        assert checked > 10
        assert findings == [], "\n".join(f.render() for f in findings)
        baseline = load_baseline(config.baseline_path)
        assert baseline == {}, "repo policy: no grandfathered findings"

    def test_full_package_clean(self):
        config = load_config(REPO_ROOT)
        findings, checked = check_paths([SRC], config)
        assert checked > 50
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_extended_scope_benchmarks_and_helpers_clean(self):
        """The per-rule pyproject scopes pull benchmarks/ and
        tests/helpers.py into the determinism/timing/byte subset; they
        must stay clean too."""
        config = load_config(REPO_ROOT)
        findings, checked = check_paths(
            [
                SRC,
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "tests" / "helpers.py",
            ],
            config,
        )
        assert checked > 100
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_telemetry_and_packet_clean(self):
        config = load_config(REPO_ROOT)
        findings, _ = check_paths(
            [SRC / "telemetry", SRC / "packet", SRC / "streams"], config
        )
        assert findings == [], "\n".join(f.render() for f in findings)
