"""Near-miss and extra flag cases for the source-invariant checks.

The checks and their tree scans live in ``test_invariants.py``; this
module runs them over small snippets: the guarded, sorted, seeded,
module-level, timed-out and closed versions of the code each one flags,
which must pass, and further shapes it must still flag.  One class per
rule ID of DESIGN.md's "Source invariants" table (SD101-SD204); the
module keeps the name of the analyser those rules first lived in.
"""

from __future__ import annotations

from test_invariants import (
    check_byte_hygiene,
    check_clock_families,
    check_determinism,
    check_metric_registry,
    check_picklable_handoffs,
    check_resource_release,
    check_seq_arithmetic,
    check_service_timeouts,
    check_telemetry_guard,
    check_trace_guard,
    check_wire_protocol,
    check_worker_status,
    design_registry,
    snippet,
)


def method(body: str, name: str = "process", args: str = "self, pkt") -> str:
    """``body`` (one statement a line) as the method ``name`` of a class."""
    lines = "".join(f"        {line}\n" for line in body.splitlines())
    return f"class C:\n    def {name}({args}):\n{lines}"


class TestSD101:
    def test_unguarded_observe_flags(self):
        assert len(check_telemetry_guard(snippet(method("self._h_latency.observe(1.0)")))) == 1

    def test_if_guard_passes(self):
        source = method("if self._tel_on:\n    self._c_packets.inc()")
        assert check_telemetry_guard(snippet(source)) == []

    def test_local_guard_variable_passes(self):
        source = method("tel_on = self._tel_on\nif tel_on:\n    self._h_stage.observe(2.0)")
        assert check_telemetry_guard(snippet(source)) == []

    def test_early_return_guard_passes(self):
        source = method("if not self._tel_on:\n    return\nself._g_flows.set(3)", "sample", "self")
        assert check_telemetry_guard(snippet(source)) == []

    def test_registry_enabled_guard_passes(self):
        source = method("if self.telemetry.enabled:\n    self._c_anomaly.inc()", "track", "self")
        assert check_telemetry_guard(snippet(source)) == []

    def test_init_and_refresh_are_exempt(self):
        source = method("self._g_flows.set(0)", "__init__", "self")
        source += "    def refresh_telemetry(self):\n        self._g_flows.set(1)\n"
        assert check_telemetry_guard(snippet(source)) == []

    def test_threading_event_set_not_flagged(self):
        source = method("event.set()", "stop", "self, event")
        assert check_telemetry_guard(snippet(source)) == []


class TestSD102:
    def test_random_call_flags(self):
        source = "import random\ndef merge(xs):\n    return random.choice(xs)\n"
        assert len(check_determinism(snippet(source))) == 1

    def test_unseeded_random_instance_flags(self):
        source = "import random\ndef merge():\n    return random.Random()\n"
        assert len(check_determinism(snippet(source))) == 1

    def test_seeded_random_instance_passes(self):
        source = "import random\ndef merge(seed):\n    return random.Random(9), random.Random(seed)"
        assert check_determinism(snippet(source)) == []

    def test_secrets_import_flags(self):
        source = "import secrets\ndef tok():\n    return secrets.token_hex(8)\n"
        assert len(check_determinism(snippet(source))) == 2  # the import and the call

    def test_datetime_now_flags(self):
        source = "from datetime import datetime\ndef stamp():\n    return datetime.now()\n"
        assert len(check_determinism(snippet(source))) == 1

    def test_keys_iteration_flags(self):
        source = "def merge(reasons):\n    return [k for k in reasons.keys()]\n"
        assert len(check_determinism(snippet(source))) == 1

    def test_sorted_set_passes(self):
        source = """
            def merge(shards, reasons):
                return [s for s in sorted(set(shards))] + [k for k in sorted(reasons.keys())]
        """
        assert check_determinism(snippet(source)) == []

    def test_packet_timestamp_arithmetic_passes(self):
        source = "def merge(alerts):\n    return sorted(alerts, key=lambda a: a.timestamp)\n"
        assert check_determinism(snippet(source)) == []

    def test_items_iteration_passes(self):
        source = "def merge(reasons):\n    return {k: v for k, v in reasons.items()}\n"
        assert check_determinism(snippet(source)) == []


class TestSD103:
    def test_lambda_through_enqueue_helper_flags(self):
        source = "def feed(enqueue, seat):\n    enqueue(seat, lambda b: b)\n"
        assert len(check_picklable_handoffs(snippet(source))) == 1

    def test_lambda_process_target_flags(self):
        source = "def launch():\n    return Process(target=lambda: None)\n"
        assert len(check_picklable_handoffs(snippet(source))) == 1

    def test_module_level_target_and_data_pass(self):
        source = """
            def worker_main(spec, queue):
                pass
            def launch(spec, queue, batch):
                queue.put(batch)
                queue.put(None)
                return Process(target=worker_main, args=(spec, queue))
        """
        assert check_picklable_handoffs(snippet(source)) == []


class TestSD104:
    def test_wall_clock_busy_flags(self):
        source = "from time import perf_counter_ns\n" + method(
            "t0 = perf_counter_ns()\nself.busy_ns += perf_counter_ns() - t0", "feed", "self, batch"
        )
        assert len(check_clock_families(snippet(source))) == 1

    def test_correct_clock_families_pass(self):
        source = """
            from time import perf_counter, process_time_ns
            class Shard:
                def feed(self, batch, report_cls):
                    t0 = process_time_ns()
                    work(batch)
                    self.busy_ns += process_time_ns() - t0
                    start = perf_counter()
                    return report_cls(wall_seconds=perf_counter() - start)
        """
        assert check_clock_families(snippet(source)) == []


class TestSD105:
    def test_well_formed_packing_passes(self):
        source = """
            import struct
            _HDR = struct.Struct('!HHI')
            def build(sport, dport, seq, payload):
                if payload == b'GET':
                    pass
                return _HDR.pack(sport, dport, seq) + struct.pack('!4s', b'abcd')
        """
        assert check_byte_hygiene(snippet(source)) == []

    def test_repeat_and_pad_codes_counted(self):
        source = "import struct\ndef build(a, b, c):\n    return struct.pack('!2Hxx4s', a, b, c)\n"
        assert check_byte_hygiene(snippet(source)) == []


WORKER = """
    def shard_worker_main(shard, in_queue, out_queue):
        try:
            batch = in_queue.get()
        except Exception as exc:
            {handler}
        out_queue.put(('ok', shard, 0, batch))
"""


class TestSD106:
    def test_silent_os_exit_flags(self):
        assert len(check_worker_status(snippet(WORKER.format(handler="os._exit(1)")))) == 1

    def test_put_before_return_passes(self):
        handler = "out_queue.put(('error', shard, 0, str(exc)))\n            return"
        assert check_worker_status(snippet(WORKER.format(handler=handler))) == []

    def test_reraise_passes(self):
        assert check_worker_status(snippet(WORKER.format(handler="raise"))) == []

    def test_handler_that_continues_is_exempt(self):
        source = """
            def shard_worker_main(shard, in_queue, out_queue):
                while True:
                    try:
                        batch = in_queue.get()
                    except Exception:
                        continue
                    out_queue.put(('ok', shard, 0, batch))
        """
        assert check_worker_status(snippet(source)) == []

    def test_functions_without_out_queue_exempt(self):
        source = """
            def feed(processor, batch):
                try:
                    processor.feed(batch)
                except ValueError:
                    return
        """
        assert check_worker_status(snippet(source)) == []


class TestSD107:
    def test_unguarded_tracer_record_flags(self):
        source = method("self.tracer.record(pkt.flow, 'fast', 'anomaly', pkt.ts)")
        assert check_trace_guard(snippet(source)) == ["fixture.py:3: unguarded .record()"]

    def test_trace_enabled_guard_passes(self):
        source = method("if self._trace_enabled:\n    self.tracer.record(pkt.flow, 'f', 'a', 0)")
        assert check_trace_guard(snippet(source)) == []

    def test_early_return_guard_passes(self):
        body = "if not self._trace_enabled:\n    return\nself.tracer.record_system('runtime', 'q')"
        assert check_trace_guard(snippet(method(body, "drain", "self, batch"))) == []

    def test_tracer_enabled_attribute_guard_passes(self):
        source = method("if self.tracer.enabled:\n    self.tracer.record(pkt.flow, 's', 'r', 0)")
        assert check_trace_guard(snippet(source)) == []

    def test_non_tracer_record_not_flagged(self):
        assert check_trace_guard(snippet(method("self.monitor.record(pkt.seq)"))) == []

    def test_tracer_construction_exempt(self):
        body = "self.tracer = tracer\nself.tracer.record_system('runtime', 'start')"
        assert check_trace_guard(snippet(method(body, "__init__", "self, tracer"))) == []

    def test_null_tracer_class_record_exempt(self):
        source = method("pass", "record", "self, flow, stage, event, ts")
        assert check_trace_guard(snippet(source)) == []


class TestSD108:
    def test_queue_put_without_timeout_flags(self):
        source = "def hand_off(out_queue, record):\n    out_queue.put(record)\n"
        assert len(check_service_timeouts(snippet(source))) == 1

    def test_queue_get_with_timeout_passes(self):
        source = method("return self._queue.get(timeout=timeout)", "poll", "self, timeout")
        assert check_service_timeouts(snippet(source)) == []

    def test_nowait_and_nonblocking_variants_pass(self):
        body = "self._queue.put_nowait(1)\nself._queue.get(block=False)\nself._queue.get_nowait()"
        assert check_service_timeouts(snippet(method(body, "drain", "self"))) == []

    def test_dict_get_is_not_a_queue(self):
        source = "def backlog(state):\n    return state.get('backlog_fraction', 0.0)\n"
        assert check_service_timeouts(snippet(source)) == []

    def test_recv_in_class_with_settimeout_passes(self):
        source = method("conn.settimeout(0.2)\nself.conn = conn", "attach", "self, conn")
        source += "    def read(self, n):\n        return self.conn.recv(n)\n"
        assert check_service_timeouts(snippet(source)) == []

    def test_accept_without_settimeout_flags(self):
        source = "def serve(listener):\n    conn, peer = listener.accept()\n    return conn\n"
        assert len(check_service_timeouts(snippet(source))) == 1

    def test_thread_join_with_timeout_passes(self):
        source = "def close(threads):\n    for thread in threads:\n        thread.join(timeout=2)"
        assert check_service_timeouts(snippet(source)) == []


class TestSD201:
    def test_kind_conflict_across_files_flags(self):
        files = snippet('C = reg.counter("repro_engine_things_total", "d")\n', "a.py")
        files += snippet('G = reg.gauge("repro_engine_things_total", "d")\n', "b.py")
        assert check_metric_registry(files, {}) == [
            "b.py:1: 'repro_engine_things_total' registered as gauge and as counter"
        ]

    def test_documented_kind_mismatch_flags(self):
        rows = design_registry("| `repro_engine_depth_total` | counter | core |\n")
        source = 'G = reg.gauge("repro_engine_depth_total", "d")\n'
        assert check_metric_registry(snippet(source), rows) == [
            "DESIGN.md: row 'repro_engine_depth_total' has no counter registered"
        ]

    def test_documented_metrics_and_spans_pass(self):
        rows = design_registry(
            "| `repro_engine_good_total` | counter | core |\n| `decode:fast_route` | span | core |"
        )
        source = """
            C = reg.counter("repro_engine_good_total", "d")
            def route(tracer, flow):
                tracer.record(flow, "decode", "fast_route")
        """
        assert check_metric_registry(snippet(source), rows) == []

    def test_no_design_doc_skips_registry_checks(self):
        assert check_metric_registry(snippet('C = reg.counter("repro_engine_x_total")\n'), {}) == []


class TestSD202:
    def test_matching_protocol_passes(self):
        worker = """
            def work(shard, out_queue):
                out_queue.put(("ok", shard, 0, None))
                out_queue.put(("error", shard, 0, "boom"))
        """
        pump = """
            def pump(out_queue):
                kind, shard, n, payload = out_queue.get()
                if kind == "ok":
                    return payload
                elif kind == "error":
                    raise RuntimeError(payload)
        """
        assert check_wire_protocol(snippet(worker), snippet(pump)) == []


class TestSD203:
    def test_helpers_and_explicit_mod_pass(self):
        source = """
            def advance(seq, n):
                return seq_add(seq, n)
            def span(end_seq, start_seq):
                return seq_diff(end_seq, start_seq)
            def wrap(seq):
                return (seq + 1) % 2**32
        """
        assert check_seq_arithmetic(snippet(source)) == []

    def test_untainted_names_pass(self):
        source = "def total(size, count):\n    return size + count\n"
        source += "def grown(seq_len):\n    return seq_len + 1\n"
        assert check_seq_arithmetic(snippet(source)) == []


class TestSD204:
    def test_local_never_closed_flags(self):
        source = "import socket\ndef probe(addr):\n    sock = socket.socket()\n    sock.connect()"
        assert check_resource_release(snippet(source)) == [
            "fixture.py:3: socket.socket sock is never closed"
        ]

    def test_with_finally_close_and_escape_pass(self):
        source = """
            import socket
            def scoped(addr):
                with socket.socket() as sock:
                    sock.connect(addr)
            def guarded(addr):
                sock = socket.socket()
                try:
                    sock.connect(addr)
                finally:
                    sock.close()
            def handoff(pool):
                sock = socket.socket()
                pool.append(sock)
            class Owner:
                def start(self):
                    self.sock = socket.socket()
                def stop(self):
                    self.sock.close()
        """
        assert check_resource_release(snippet(source)) == []
