"""Tests for the splitdetect command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.pcap import read_trace
from repro.signatures import dump_rules, Signature


@pytest.fixture
def demo_pcap(tmp_path):
    path = tmp_path / "demo.pcap"
    assert main(["generate", str(path), "--flows", "8", "--seed", "3"]) == 0
    return path


class TestGenerate:
    def test_writes_readable_pcap(self, demo_pcap):
        packets = list(read_trace(demo_pcap))
        assert packets

    def test_reports_packet_count(self, tmp_path, capsys):
        path = tmp_path / "g.pcap"
        assert main(["generate", str(path), "--flows", "3"]) == 0
        assert "wrote" in capsys.readouterr().out

    def test_attack_injection(self, tmp_path, capsys):
        path = tmp_path / "attack.pcap"
        code = main(["generate", str(path), "--flows", "4", "--attack", "tcp_seg_8"])
        assert code == 0
        assert "1 attack flows" in capsys.readouterr().out

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        code = main(["generate", str(tmp_path / "x.pcap"), "--attack", "nonsense"])
        assert code == 2
        assert "unknown strategy" in capsys.readouterr().err


class TestRun:
    def test_split_engine(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "6", "--attack", "tcp_seg_8"])
        capsys.readouterr()
        assert main(["run", str(path), "--engine", "split"]) == 0
        out = capsys.readouterr().out
        assert "diverted flows" in out
        assert "alerts:" in out

    def test_conventional_engine(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "6", "--attack", "plain"])
        capsys.readouterr()
        assert main(["run", str(path), "--engine", "conventional"]) == 0
        out = capsys.readouterr().out
        assert "peak state" in out

    def test_naive_engine(self, demo_pcap, capsys):
        assert main(["run", str(demo_pcap), "--engine", "naive"]) == 0
        assert "alerts:" in capsys.readouterr().out

    def test_state_backend_sketch(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "6", "--attack", "tcp_seg_8"])
        capsys.readouterr()
        assert main(["run", str(path), "--state-backend", "sketch"]) == 0
        out = capsys.readouterr().out
        assert "diverted flows" in out
        assert "peak state" in out

    def test_state_backend_table(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "6"])
        capsys.readouterr()
        assert main(["run", str(path), "--state-backend", "table"]) == 0
        assert "peak state" in capsys.readouterr().out

    def test_state_backend_needs_split_engine(self, demo_pcap, capsys):
        code = main(["run", str(demo_pcap), "--engine", "naive",
                     "--state-backend", "sketch"])
        assert code == 2
        assert "state-backend" in capsys.readouterr().err

    def test_state_backend_sketch_parallel(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "8", "--attack", "tcp_seg_8"])
        capsys.readouterr()
        assert main(["run", str(path), "--state-backend", "sketch",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "shards" in out

    def test_custom_rules_file(self, tmp_path, capsys):
        rules_path = tmp_path / "my.rules"
        rules_path.write_text(
            dump_rules([Signature(sid=1, pattern=b"abcdefghijklmnopqrstuvwx", msg="m")])
        )
        pcap = tmp_path / "t.pcap"
        main(["generate", str(pcap), "--flows", "3"])
        capsys.readouterr()
        assert main(["run", str(pcap), "--rules", str(rules_path)]) == 0


class TestTelemetryFlags:
    @pytest.fixture
    def attack_pcap(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "6", "--attack", "tcp_seg_8"])
        capsys.readouterr()
        return path

    def test_telemetry_out_writes_valid_json(self, attack_pcap, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["run", str(attack_pcap), "--telemetry-out", str(out)]) == 0
        assert "telemetry (json) written" in capsys.readouterr().out
        snapshot = json.loads(out.read_text())
        assert set(snapshot) == {
            "counters", "gauges", "histograms", "journal", "profile",
        }
        assert "fast_path" in snapshot["profile"]["stages"]
        # The acceptance-criteria series are all present.
        stages = {
            sample["labels"]["stage"]
            for sample in snapshot["histograms"]["repro_engine_stage_latency_ns"]["values"]
        }
        assert {"decode", "fast_path", "ac_prescan", "slow_path"} <= stages
        anomaly = snapshot["counters"]["repro_fastpath_anomaly_total"]
        assert sum(v["value"] for v in anomaly["values"]) > 0
        assert snapshot["gauges"]["repro_engine_diversion_byte_fraction"]["values"]
        ratio = snapshot["gauges"]["repro_run_state_bytes_ratio"]["values"][0]["value"]
        assert 0 < ratio < 1

    def test_telemetry_prometheus_format(self, attack_pcap, tmp_path, capsys):
        out = tmp_path / "stats.prom"
        code = main(["run", str(attack_pcap), "--telemetry-out", str(out),
                     "--telemetry-format", "prometheus"])
        assert code == 0
        text = out.read_text()
        assert "# TYPE repro_engine_packets_total counter" in text
        assert 'repro_engine_stage_latency_ns_bucket{stage="decode",le="+Inf"}' in text

    def test_telemetry_for_other_engines(self, attack_pcap, tmp_path, capsys):
        for engine in ("conventional", "naive"):
            out = tmp_path / f"{engine}.json"
            code = main(["run", str(attack_pcap), "--engine", engine,
                         "--telemetry-out", str(out)])
            assert code == 0
            snapshot = json.loads(out.read_text())
            assert any(name.startswith(f"repro_{engine}_")
                       for name in snapshot["counters"])

    def test_missing_parent_directory_rejected(self, attack_pcap, tmp_path, capsys):
        bad = tmp_path / "no" / "such" / "dir" / "s.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(attack_pcap), "--telemetry-out", str(bad)])
        assert exc.value.code == 2
        assert "parent directory" in capsys.readouterr().err

    def test_no_telemetry_runs_clean(self, attack_pcap, capsys):
        assert main(["run", str(attack_pcap), "--no-telemetry"]) == 0
        assert "telemetry" not in capsys.readouterr().out

    def test_no_telemetry_conflicts_with_out(self, attack_pcap, tmp_path, capsys):
        code = main(["run", str(attack_pcap), "--no-telemetry",
                     "--telemetry-out", str(tmp_path / "s.json")])
        assert code == 2
        assert "drop --no-telemetry" in capsys.readouterr().err

    def test_bad_format_rejected(self, attack_pcap, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", str(attack_pcap), "--telemetry-format", "xml"]
            )


class TestTraceFlags:
    @pytest.fixture
    def attack_pcap(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "6", "--attack", "tcp_seg_8"])
        capsys.readouterr()
        return path

    def test_trace_out_writes_jsonl(self, attack_pcap, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["run", str(attack_pcap), "--trace-out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "spans written" in stdout
        assert "stage profile" in stdout
        spans = [json.loads(line) for line in out.read_text().splitlines()]
        assert spans
        events = {span["event"] for span in spans}
        assert {"divert", "confirm"} <= events
        for span in spans:
            assert {"trace", "ts", "shard", "gen", "seq",
                    "stage", "event", "flow"} <= set(span)

    def test_trace_out_parallel(self, attack_pcap, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["run", str(attack_pcap), "--trace-out", str(out),
                     "--workers", "2"])
        assert code == 0
        spans = [json.loads(line) for line in out.read_text().splitlines()]
        assert "divert" in {span["event"] for span in spans}

    def test_trace_needs_split_engine(self, attack_pcap, tmp_path, capsys):
        code = main(["run", str(attack_pcap), "--engine", "naive",
                     "--trace-out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "split engine" in capsys.readouterr().err

    def test_serve_conflicts_with_no_telemetry(self, attack_pcap, capsys):
        code = main(["run", str(attack_pcap), "--no-telemetry",
                     "--serve-telemetry", "0"])
        assert code == 2
        assert "drop --no-telemetry" in capsys.readouterr().err

    def test_serve_telemetry_announces_endpoint(self, attack_pcap, capsys):
        assert main(["run", str(attack_pcap), "--serve-telemetry", "0"]) == 0
        assert "telemetry endpoint: http://127.0.0.1:" in capsys.readouterr().out

    def test_trace_sample_validation(self, attack_pcap):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", str(attack_pcap), "--trace-sample", "0"]
            )


class TestExplainCommand:
    @pytest.fixture
    def trace_dump(self, tmp_path, capsys):
        pcap = tmp_path / "t.pcap"
        main(["generate", str(pcap), "--flows", "6", "--attack", "tcp_seg_8"])
        out = tmp_path / "trace.jsonl"
        assert main(["run", str(pcap), "--trace-out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_lists_traces_without_selector(self, trace_dump, capsys):
        assert main(["explain", str(trace_dump)]) == 0
        out = capsys.readouterr().out
        assert "traces in" in out
        assert "spans=" in out

    def test_flow_selector_reconstructs_timeline(self, trace_dump, capsys):
        assert main(["explain", str(trace_dump), "10.250.0"]) == 0
        out = capsys.readouterr().out
        assert "divert" in out
        assert "confirm" in out
        # Timeline lines are time-ordered.
        times = [
            float(line.split("t=")[1].split()[0])
            for line in out.splitlines() if "t=" in line
        ]
        assert times == sorted(times)

    def test_trace_id_prefix_selector(self, trace_dump, capsys):
        first = json.loads(trace_dump.read_text().splitlines()[0])
        assert main(["explain", str(trace_dump), first["trace"][:8]]) == 0
        assert first["trace"] in capsys.readouterr().out

    def test_no_match_exits_one(self, trace_dump, capsys):
        assert main(["explain", str(trace_dump), "no-such-flow"]) == 1
        assert "no spans match" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parallel_timeline_matches_serial(self, tmp_path, capsys):
        """The acceptance criterion: explain over a 4-worker run's dump
        reconstructs the same divert->confirm timeline as the serial
        single-process dump (modulo the shard column)."""
        pcap = tmp_path / "t.pcap"
        main(["generate", str(pcap), "--flows", "6", "--attack", "tcp_seg_8"])
        serial_out = tmp_path / "serial.jsonl"
        parallel_out = tmp_path / "parallel.jsonl"
        assert main(["run", str(pcap), "--trace-out", str(serial_out)]) == 0
        assert main(["run", str(pcap), "--trace-out", str(parallel_out),
                     "--workers", "4"]) == 0
        capsys.readouterr()
        assert main(["explain", str(serial_out), "10.250.0"]) == 0
        serial_text = capsys.readouterr().out
        assert main(["explain", str(parallel_out), "10.250.0"]) == 0
        parallel_text = capsys.readouterr().out

        def timeline(text):
            return [
                (line.split("[", 1)[1],)  # stage] event fields...
                for line in text.splitlines() if "t=" in line
            ]

        assert "divert" in serial_text
        assert timeline(serial_text) == timeline(parallel_text)


class TestRulesCommand:
    def test_corpus_stats(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "signatures: 351" in out
        assert "small-packet threshold" in out

    def test_histogram(self, capsys):
        assert main(["rules", "--histogram"]) == 0
        assert "pattern-length histogram" in capsys.readouterr().out

    def test_piece_length_option(self, capsys):
        assert main(["rules", "--piece-length", "12"]) == 0
        assert "B: 24" in capsys.readouterr().out


class TestStrategiesCommand:
    def test_lists_catalog(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "tcp_seg_1" in out and "ip_frag_overlap" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "x.pcap", "--engine", "bogus"])


class TestParallelRun:
    @pytest.fixture
    def attack_pcap(self, tmp_path, capsys):
        path = tmp_path / "t.pcap"
        main(["generate", str(path), "--flows", "6", "--attack", "tcp_seg_8"])
        capsys.readouterr()
        return path

    @pytest.fixture
    def small_rules(self, tmp_path):
        """One-signature rules file so worker engines build fast."""
        path = tmp_path / "small.rules"
        path.write_text(
            dump_rules([Signature(sid=1, pattern=b"abcdefghijklmnopqrstuvwx", msg="m")])
        )
        return path

    def test_workers_runs_sharded(self, attack_pcap, small_rules, capsys):
        code = main(["run", str(attack_pcap), "--workers", "2",
                     "--rules", str(small_rules)])
        assert code == 0
        out = capsys.readouterr().out
        assert "across 2 shards" in out
        assert "shard[0]:" in out and "shard[1]:" in out
        assert "alerts:" in out

    def test_workers_with_shed(self, attack_pcap, small_rules, capsys):
        code = main(["run", str(attack_pcap), "--workers", "2", "--shed",
                     "--queue-depth", "4", "--rules", str(small_rules)])
        assert code == 0
        assert "across 2 shards" in capsys.readouterr().out

    def test_workers_telemetry_out(self, attack_pcap, small_rules, tmp_path, capsys):
        out = tmp_path / "par.json"
        code = main(["run", str(attack_pcap), "--workers", "2",
                     "--rules", str(small_rules), "--telemetry-out", str(out)])
        assert code == 0
        assert "telemetry (json) written" in capsys.readouterr().out
        snapshot = json.loads(out.read_text())
        assert "repro_runtime_workers" in snapshot["gauges"]

    def test_worker_failure_is_a_message_not_a_traceback(
        self, attack_pcap, small_rules, capsys
    ):
        """No restart budget: the first failure ends the run, readably."""
        code = main(["run", str(attack_pcap), "--workers", "2",
                     "--rules", str(small_rules),
                     "--inject", "crash:shard=0,at=0"])
        assert code == 1
        assert "worker failure: shard 0 crash: exit code 73" in capsys.readouterr().err

    def test_workers_requires_split_engine(self, attack_pcap, capsys):
        code = main(["run", str(attack_pcap), "--workers", "2",
                     "--engine", "naive"])
        assert code == 2
        assert "split engine only" in capsys.readouterr().err

    def test_shed_and_block_mutually_exclusive(self, attack_pcap):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", str(attack_pcap), "--workers", "2", "--shed", "--block"]
            )

    def test_bad_evict_interval_rejected(self, attack_pcap):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", str(attack_pcap), "--evict-interval", "-1"]
            )

    def test_evict_interval_single_process(self, attack_pcap, capsys):
        code = main(["run", str(attack_pcap), "--evict-interval", "30"])
        assert code == 0
        assert "processed" in capsys.readouterr().out


class TestLintCommand:
    @pytest.fixture
    def dup_sid_rules(self, tmp_path):
        """A ruleset with one ERROR (duplicate sid) and warnings."""
        path = tmp_path / "dup.rules"
        path.write_text(
            dump_rules(
                [
                    Signature(sid=7, pattern=b"abcdefghijklmnopqrstuvwx", msg="a"),
                    Signature(sid=7, pattern=b"zyxwvutsrqponmlkjihgfedc", msg="b"),
                ]
            )
        )
        return path

    @pytest.fixture
    def warn_only_rules(self, tmp_path):
        """A ruleset with a warning (unsplittable short pattern), no errors."""
        path = tmp_path / "warn.rules"
        path.write_text(dump_rules([Signature(sid=9, pattern=b"ab", msg="w")]))
        return path

    def test_errors_exit_nonzero(self, dup_sid_rules, capsys):
        code = main(["lint", "--rules", str(dup_sid_rules), "--no-model"])
        assert code == 1
        assert "duplicate-sid" in capsys.readouterr().out

    def test_warnings_alone_exit_zero(self, warn_only_rules, capsys):
        assert main(["lint", "--rules", str(warn_only_rules), "--no-model"]) == 0
        assert "unsplittable" in capsys.readouterr().out

    def test_strict_fails_on_warnings(self, warn_only_rules):
        code = main(["lint", "--rules", str(warn_only_rules), "--no-model",
                     "--strict"])
        assert code == 1

    def test_strict_passes_clean_ruleset(self, tmp_path):
        path = tmp_path / "clean.rules"
        path.write_text(
            dump_rules([Signature(sid=1, pattern=b"abcdefghijklmnopqrstuvwx",
                                  msg="m")])
        )
        assert main(["lint", "--rules", str(path), "--no-model", "--strict"]) == 0

    def test_json_output_machine_readable(self, dup_sid_rules, capsys):
        code = main(["lint", "--rules", str(dup_sid_rules), "--no-model",
                     "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == 2
        assert payload["errors"] == 1
        codes = {finding["code"] for finding in payload["findings"]}
        assert "duplicate-sid" in codes
        levels = {finding["level"] for finding in payload["findings"]}
        assert levels <= {"error", "warning", "info"}

    def test_json_on_bundled_corpus(self, capsys):
        assert main(["lint", "--no-model", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == 351
        assert payload["errors"] == 0
