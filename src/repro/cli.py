"""Command-line interface: ``splitdetect`` (or ``python -m repro``).

Subcommands:

- ``run``       drive an IPS over a pcap file, print alerts and resources
- ``generate``  synthesize a benign trace (optionally with attacks) to pcap
- ``rules``     show the bundled signature corpus and its split statistics
- ``strategies`` list the evasion catalog
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from .core import (
    Alert,
    ConventionalIPS,
    FastPathConfig,
    NaivePacketIPS,
    SplitDetectIPS,
)
from .evasion import STRATEGIES, build_attack
from .metrics import (
    RunReport,
    run_conventional,
    run_split_detect,
    state_bytes_ratio,
)
from .pcap import read_column_batches, read_trace, write_trace
from .runtime import (
    Backpressure,
    EngineSpec,
    FaultPlan,
    ParallelRunner,
    RunnerConfig,
    WorkerFailure,
    iter_batches,
)
from .signatures import (
    RuleSet,
    SplitPolicy,
    load_bundled_rules,
    load_rules,
    split_ruleset,
)
from .telemetry import (
    NULL_REGISTRY,
    FlowTracer,
    TelemetryRegistry,
    TelemetrySession,
    span_sort_key,
    write_telemetry,
)
from .traffic import TrafficProfile, generate_trace, inject_attacks


def _load_ruleset(path: str | None) -> RuleSet:
    return load_rules(path) if path else load_bundled_rules()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _writable_file(text: str) -> Path:
    """A file path whose parent directory already exists (--telemetry-out)."""
    path = Path(text)
    parent = path.parent
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"parent directory {parent} does not exist"
        )
    return path


def _finish_telemetry(
    args: argparse.Namespace,
    ips: SplitDetectIPS | ConventionalIPS | NaivePacketIPS,
    report: RunReport | None = None,
) -> None:
    """Write the run's telemetry snapshot if --telemetry-out was given."""
    if not ips.telemetry.enabled:
        return
    ips.refresh_telemetry()
    if report is not None and args.engine == "split":
        ips.telemetry.gauge(
            "repro_run_state_bytes_ratio",
            "Measured peak state over the conventional provisioned equivalent",
        ).set(state_bytes_ratio(report))
    if args.telemetry_out is not None:
        path = write_telemetry(
            ips.telemetry, args.telemetry_out, format=args.telemetry_format
        )
        print(f"telemetry ({args.telemetry_format}) written to {path}")


def _write_trace_dump(path: Path, snapshot: dict | None) -> None:
    """Dump a flight-recorder snapshot as JSONL (one span per line)."""
    spans = (snapshot or {}).get("spans", [])
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    dropped = (snapshot or {}).get("dropped", 0)
    note = f" ({dropped} older spans dropped by the ring)" if dropped else ""
    print(f"trace: {len(spans)} spans written to {path}{note}")


def _print_alerts(alerts: list[Alert], max_alerts: int) -> None:
    print(f"alerts: {len(alerts)}")
    for alert in alerts[:max_alerts]:
        print(f"  {alert}")
    if len(alerts) > max_alerts:
        print(f"  ... and {len(alerts) - max_alerts} more")


def _fast_config(args: argparse.Namespace) -> FastPathConfig | None:
    """Fast-path config from CLI flags; None keeps the engine defaults."""
    if args.state_backend == "dict":
        return None
    return FastPathConfig(state_backend=args.state_backend)


def _cmd_run_parallel(args: argparse.Namespace, rules: RuleSet) -> int:
    """The sharded path: N worker processes behind the flow hash."""
    spec = EngineSpec(
        rules=rules,
        split_policy=SplitPolicy(piece_length=args.piece_length),
        fast_config=_fast_config(args),
    )
    faults = None
    if args.inject:
        try:
            faults = FaultPlan.parse(args.inject)
        except ValueError as exc:
            print(f"bad --inject spec: {exc}", file=sys.stderr)
            return 2
        print(f"fault plan: {faults.describe()}")
    trace_on = args.trace_out is not None or args.serve_telemetry is not None
    config = RunnerConfig(
        batch_size=args.batch_size,
        backpressure=Backpressure.SHED if args.shed else Backpressure.BLOCK,
        queue_depth=args.queue_depth,
        evict_interval=args.evict_interval,
        telemetry=not args.no_telemetry,
        trace=trace_on,
        trace_sample=args.trace_sample,
        max_restarts=args.max_restarts,
        restart_backoff=args.restart_backoff,
        faults=faults,
    )
    with TelemetrySession(args.serve_telemetry, hold=args.serve_hold) as session:
        runner = ParallelRunner(spec, workers=args.workers, config=config)
        session.update_health(status="running", mode="parallel",
                              workers=args.workers)
        # Decoded straight to columns, malformed frames riding along as
        # quarantine entries: the runner's ledger owns them, so a
        # hostile capture cannot kill the run.
        try:
            report = runner.run(
                read_column_batches(args.pcap, batch_size=config.batch_size)
            )
        except WorkerFailure as exc:
            print(f"worker failure: {exc}", file=sys.stderr)
            return 1
        session.publish_registry(report.registry)
        session.publish_trace(report.trace)
        session.update_health(
            status="ok",
            mode="parallel",
            workers=report.workers,
            packets=report.packets,
            alerts=len(report.alerts),
            diverted_flows=report.diverted_flows,
            worker_restarts=report.worker_restarts,
        )
        _print_parallel_report(args, report)
    return 0


def _print_parallel_report(args: argparse.Namespace, report) -> None:
    if report.interrupted:
        print("INTERRUPTED: feed stopped early; workers drained, "
              "this is a partial report")
    print(
        f"processed {report.packets} packets across {report.workers} shards "
        f"in {report.wall_seconds:.2f}s "
        f"({report.wall_throughput_pps:,.0f} pkt/s wall, "
        f"{report.aggregate_shard_pps:,.0f} pkt/s aggregate)"
    )
    if report.shed_packets:
        print(f"SHED {report.shed_packets} packets "
              f"({report.shed_batches} batches) under backpressure")
    if report.worker_restarts:
        print(f"RESTARTED {report.worker_restarts} worker(s)")
    for interval in report.degraded:
        if interval.start_ts is not None and interval.end_ts is not None:
            window = f"{interval.start_ts:.3f}..{interval.end_ts:.3f}"
        elif interval.open:
            window = "open"
        else:
            window = "unconfirmed start"
        print(
            f"DEGRADED shard {interval.shard} gen {interval.generation} "
            f"[{interval.reason}] packets_lost={interval.packets_lost} "
            f"flows_reset={interval.flows_reset} "
            f"alerts_salvaged={interval.alerts_salvaged} window={window}"
        )
    if report.quarantined:
        causes = ", ".join(
            f"{cause}={count}" for cause, count in sorted(report.quarantined.items())
        )
        print(f"QUARANTINED {report.quarantined_packets} malformed frame(s): {causes}")
    print(f"diverted flows: {report.diverted_flows}  "
          f"({report.diversion_byte_fraction:.2%} of bytes on slow path)")
    for reason, count in sorted(report.divert_reasons.items()):
        print(f"  divert[{reason}] = {count}")
    for shard in report.shards:
        print(f"  shard[{shard.shard}]: {shard.stats.packets_total} packets, "
              f"{len(shard.alerts)} alerts, {shard.diverted_flows} diverted, "
              f"{shard.busy_seconds:.2f}s busy")
    print(f"peak state: {report.peak_state_bytes} bytes over "
          f"{report.peak_flows} flows (summed shard provisioning)")
    _print_alerts(report.alerts, args.max_alerts)
    if report.registry is not None and args.telemetry_out is not None:
        path = write_telemetry(
            report.registry, args.telemetry_out, format=args.telemetry_format
        )
        print(f"telemetry ({args.telemetry_format}) written to {path}")
    if report.profile is not None:
        _print_profile(report.profile)
    if args.trace_out is not None:
        _write_trace_dump(args.trace_out, report.trace)


def _print_profile(profile: dict) -> None:
    """One line per stage: count, p50/p99, and the max-bucket bound."""
    print("stage profile (ns):")
    for stage in sorted(profile.get("stages", {})):
        entry = profile["stages"][stage]
        print(
            f"  {stage:<10} count={entry['count']:<8} "
            f"p50={entry['p50_ns']:,.0f} p99={entry['p99_ns']:,.0f} "
            f"max<={entry['max_le_ns']:,.0f}"
        )


def cmd_run(args: argparse.Namespace) -> int:
    if args.no_telemetry and args.telemetry_out is not None:
        print("--telemetry-out needs instrumentation; drop --no-telemetry",
              file=sys.stderr)
        return 2
    if args.no_telemetry and args.serve_telemetry is not None:
        print("--serve-telemetry needs instrumentation; drop --no-telemetry",
              file=sys.stderr)
        return 2
    if (
        args.trace_out is not None or args.serve_telemetry is not None
    ) and args.engine != "split":
        print("--trace-out/--serve-telemetry trace the split engine's "
              "decision procedure; conventional/naive baselines have none",
              file=sys.stderr)
        return 2
    if args.workers and args.engine != "split":
        print("--workers shards the split engine only; conventional/naive "
              "baselines run single-process", file=sys.stderr)
        return 2
    if args.state_backend != "dict" and args.engine != "split":
        print("--state-backend configures the split engine's fast path; "
              "conventional/naive baselines have no flow monitor",
              file=sys.stderr)
        return 2
    if (args.inject or args.max_restarts) and not args.workers:
        print("--inject/--max-restarts drive the sharded runtime; add "
              "--workers N", file=sys.stderr)
        return 2
    if args.max_restarts < 0:
        print(f"--max-restarts must be >= 0, got {args.max_restarts}",
              file=sys.stderr)
        return 2
    rules = _load_ruleset(args.rules)
    print(f"loaded {len(rules)} signatures")
    if args.workers:
        return _cmd_run_parallel(args, rules)
    telemetry = NULL_REGISTRY if args.no_telemetry else TelemetryRegistry()
    if args.engine == "split":
        tracer = None
        if args.trace_out is not None or args.serve_telemetry is not None:
            tracer = FlowTracer(sample=args.trace_sample)
        ips = SplitDetectIPS(
            rules,
            split_policy=SplitPolicy(piece_length=args.piece_length),
            fast_config=_fast_config(args),
            telemetry=telemetry,
            tracer=tracer,
        )
        with TelemetrySession(args.serve_telemetry, hold=args.serve_hold) as session:
            # Live wiring: a mid-run scrape refreshes the gauges and
            # reads the engine's registry directly.
            session.publish_registry(telemetry, refresh=ips.refresh_telemetry)
            session.update_health(status="running", mode="single")
            # Single-process contract: a malformed frame raises (only
            # the runners keep a quarantine ledger).
            report = run_split_detect(
                ips,
                read_column_batches(
                    args.pcap, batch_size=args.batch_size, on_invalid="raise"
                ),
                batch_size=args.batch_size,
                evict_interval=args.evict_interval,
            )
            print(f"processed {report.packets} packets")
            print(f"diverted flows: {report.diverted_flows}  "
                  f"({report.diversion_byte_fraction:.2%} of bytes on slow path)")
            for reason, count in sorted(report.divert_reasons.items()):
                print(f"  divert[{reason}] = {count}")
            if report.profile is not None:
                _print_profile(report.profile)
            if args.trace_out is not None:
                _write_trace_dump(args.trace_out, report.trace)
            session.publish_trace(report.trace)
            session.update_health(
                status="ok",
                mode="single",
                packets=report.packets,
                alerts=len(report.alerts),
                diverted_flows=report.diverted_flows,
            )
            print(f"peak state: {report.peak_state_bytes} bytes over "
                  f"{report.peak_flows} flows")
            _print_alerts(report.alerts, args.max_alerts)
            _finish_telemetry(args, ips, report)
        return 0
    elif args.engine == "conventional":
        ips = ConventionalIPS(rules, telemetry=telemetry)
        report = run_conventional(ips, read_trace(args.pcap))
        print(f"processed {report.packets} packets")
    else:
        ips = NaivePacketIPS(rules, telemetry=telemetry)
        alerts = []
        packets = 0
        for batch in iter_batches(read_trace(args.pcap), args.batch_size):
            alerts.extend(ips.process_batch(batch))
            packets += len(batch)
        print(f"processed {packets} packets")
        _print_alerts(alerts, args.max_alerts)
        _finish_telemetry(args, ips)
        return 0
    print(f"peak state: {report.peak_state_bytes} bytes over {report.peak_flows} flows")
    _print_alerts(report.alerts, args.max_alerts)
    _finish_telemetry(args, ips, report)
    return 0


def _parse_tenant(text: str):
    """Parse one --tenant NAME=SELECTORS:RULES declaration."""
    from .service import TenantSpec

    name, sep, rest = text.partition("=")
    selectors_text, sep2, rules_path = rest.rpartition(":")
    if not sep or not sep2 or not name or not selectors_text or not rules_path:
        raise ValueError(
            f"bad --tenant {text!r}: expected NAME=SELECTOR[,SELECTOR...]:RULES_PATH"
        )
    selectors = tuple(s for s in selectors_text.split(",") if s)
    if not selectors:
        raise ValueError(f"bad --tenant {text!r}: no selectors")
    return TenantSpec(
        name=name,
        selectors=selectors,
        rules=load_rules(rules_path),
        rules_path=rules_path,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Long-lived service mode: ingest, shed, hot-reload, drain."""
    from .runtime.spec import EngineSpec as _EngineSpec
    from .service import (
        ServiceConfig,
        ShedPolicy,
        SplitDetectService,
        TenantTable,
        open_source,
    )

    if args.no_telemetry and (
        args.telemetry_out is not None or args.serve_telemetry is not None
    ):
        print("--telemetry-out/--serve-telemetry need instrumentation; "
              "drop --no-telemetry", file=sys.stderr)
        return 2
    rules = _load_ruleset(args.rules)
    print(f"loaded {len(rules)} signatures (default tenant)")
    try:
        tenants = [_parse_tenant(text) for text in args.tenant or []]
    except (ValueError, OSError) as exc:
        print(f"bad tenant declaration: {exc}", file=sys.stderr)
        return 2
    for spec in tenants:
        print(f"tenant {spec.name}: {len(spec.rules)} signatures, "
              f"selectors {', '.join(spec.selectors)}")
    try:
        source = open_source(args.source, capacity=args.ingest_buffer)
    except (ValueError, OSError) as exc:
        print(f"cannot open source: {exc}", file=sys.stderr)
        return 2
    trace_on = args.trace_out is not None or args.serve_telemetry is not None
    runner_config = RunnerConfig(
        batch_size=args.batch_size,
        evict_interval=args.evict_interval,
        telemetry=not args.no_telemetry,
        trace=trace_on,
        trace_sample=args.trace_sample,
    )
    engine_spec = _EngineSpec(
        rules=rules,
        split_policy=SplitPolicy(piece_length=args.piece_length),
        fast_config=_fast_config(args),
    )
    try:
        table = TenantTable(
            engine_spec, tenants, keyer=args.tenant_key, config=runner_config
        )
        policy = ShedPolicy(
            backlog_high=args.shed_high,
            backlog_low=args.shed_low,
            p99_budget_ns=args.shed_p99_budget_us * 1000.0,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    service_config = ServiceConfig(
        batch_size=args.batch_size,
        poll_timeout=args.poll_timeout,
        duration=args.duration,
        max_packets=args.max_packets,
        shed_policy=policy,
        shed_enabled=not args.no_shed,
    )
    tenant_paths = {spec.name: spec.rules_path for spec in tenants}

    def reload_loader():
        updated = {"default": _load_ruleset(args.rules)}
        for name, path in tenant_paths.items():
            updated[name] = load_rules(path)
        return updated

    service = SplitDetectService(
        source, table, config=service_config, reload_loader=reload_loader
    )

    # Signal contract: SIGHUP reloads, SIGTERM/SIGINT drain cleanly.
    # Handlers only flip events; the loop does the work on its own
    # thread, so no engine is ever touched from a handler.
    previous = {}
    for signum, handler in (
        (signal.SIGTERM, lambda *_: service.request_stop("sigterm")),
        (signal.SIGINT, lambda *_: service.request_stop("sigint")),
        (getattr(signal, "SIGHUP", None), lambda *_: service.request_reload()),
    ):
        if signum is not None:
            previous[signum] = signal.signal(signum, handler)
    try:
        with TelemetrySession(args.serve_telemetry, hold=args.serve_hold) as session:
            if session.enabled:
                publisher = session.publisher
                publisher.source_state = source.state
                publisher.shed_state = service.shedder.state
                publisher.tenants_state = table.state
                publisher.reload_token = args.reload_token
                if args.reload_token:
                    publisher.on_reload = service.request_reload
                    print("reload endpoint: POST /reload "
                          "(Authorization: Bearer <token>)")
                from .service import DEFAULT_TENANT

                session.publish_registry(
                    table.processor(DEFAULT_TENANT).telemetry
                )
            session.update_health(
                status="running", mode="serve", source=args.source,
                tenants=len(tenants) + 1,
            )
            print(f"serving from {args.source} "
                  f"(tenant key: {args.tenant_key}, "
                  f"shed: {'off' if args.no_shed else 'on'})")
            report = service.run()
            session.publish_registry(report.runtime.registry)
            session.publish_trace(report.runtime.trace)
            session.update_health(
                status="ok",
                mode="serve",
                stop_reason=report.stop_reason,
                packets=report.examined_packets,
                alerts=len(report.runtime.alerts),
            )
            _print_serve_report(args, report)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _print_serve_report(args: argparse.Namespace, report) -> None:
    runtime = report.runtime
    print(f"stopped ({report.stop_reason}) after {report.wall_seconds:.2f}s")
    print(
        f"accounting: input={report.input_records} "
        f"examined={report.examined_packets} shed={report.shed_packets} "
        f"quarantined={report.quarantined_packets} lost={report.lost_packets} "
        f"[{'closed' if report.accounting_closed else 'OPEN -- BUG'}]"
    )
    if report.reloads:
        print(f"hot reloads applied: {report.reloads}")
    if report.shed_packets:
        print(f"SHED {report.shed_packets} packets under overload "
              f"({report.shed.get('level_changes', 0)} level changes, "
              f"{report.shed.get('protected_packets', 0)} protected packets "
              f"kept)")
    for name, entry in sorted(report.tenants.get("tenants", {}).items()):
        print(f"  tenant[{name}]: {entry['packets']} packets, "
              f"{entry['alerts']} alerts, {entry['diverted_flows']} diverted, "
              f"rules gen {entry['rules_generation']}")
    print(f"diverted flows: {runtime.diverted_flows}  "
          f"({runtime.diversion_byte_fraction:.2%} of bytes on slow path)")
    _print_alerts(runtime.alerts, args.max_alerts)
    if runtime.registry is not None and args.telemetry_out is not None:
        path = write_telemetry(
            runtime.registry, args.telemetry_out, format=args.telemetry_format
        )
        print(f"telemetry ({args.telemetry_format}) written to {path}")
    if args.trace_out is not None:
        _write_trace_dump(args.trace_out, runtime.trace)


def _load_spans(path: str) -> list[dict]:
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not a JSON span: {exc}") from exc
    return spans


def _matches_selector(span: dict, selector: str) -> bool:
    """A span matches a 16-hex trace id (prefix ok) or a flow substring."""
    lowered = selector.lower()
    if all(ch in "0123456789abcdef" for ch in lowered) and lowered:
        if span.get("trace", "").startswith(lowered):
            return True
    return selector in span.get("flow", "")


def _format_span(span: dict) -> str:
    base_keys = ("trace", "ts", "shard", "gen", "seq", "stage", "event", "flow")
    extras = " ".join(
        f"{key}={span[key]}" for key in span if key not in base_keys
    )
    return (
        f"  t={span.get('ts', 0.0):>12.6f}  shard {span.get('shard', 0)}"
        f"/g{span.get('gen', 0)}  [{span.get('stage', '?'):<7}] "
        f"{span.get('event', '?'):<14}{(' ' + extras) if extras else ''}"
    )


def cmd_explain(args: argparse.Namespace) -> int:
    """Reconstruct a flow's decision timeline from a JSONL trace dump."""
    try:
        spans = _load_spans(args.trace_file)
    except OSError as exc:
        print(f"cannot read {args.trace_file}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if not args.selector:
        # No selector: list the traced flows so the operator can pick one.
        flows: dict[str, tuple[str, int]] = {}
        for span in spans:
            trace_id = span.get("trace", "?")
            flow, count = flows.get(trace_id, ("", 0))
            flows[trace_id] = (flow or span.get("flow", ""), count + 1)
        print(f"{len(spans)} spans across {len(flows)} traces in {args.trace_file}")
        for trace_id in sorted(flows):
            flow, count = flows[trace_id]
            print(f"  {trace_id}  spans={count:<5} {flow}")
        return 0
    matched = [span for span in spans if _matches_selector(span, args.selector)]
    if not matched:
        print(f"no spans match {args.selector!r} in {args.trace_file}",
              file=sys.stderr)
        return 1
    matched.sort(key=span_sort_key)
    trace_ids = sorted({span.get("trace", "?") for span in matched})
    print(
        f"{len(matched)} spans for trace "
        f"{', '.join(trace_ids)} ({args.selector!r}):"
    )
    for span in matched:
        print(_format_span(span))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    profile = TrafficProfile(flows=args.flows)
    trace = generate_trace(profile, seed=args.seed)
    attacks = []
    rules = _load_ruleset(args.rules)
    for name in args.attack or []:
        if name not in STRATEGIES:
            print(f"unknown strategy {name!r}; see 'splitdetect strategies'", file=sys.stderr)
            return 2
        signature = rules.signatures[0]
        payload = b"X" * 200 + signature.pattern + b"Y" * 200
        attacks.append(
            build_attack(
                name,
                payload,
                signature_span=(200, len(signature.pattern)),
                src=f"10.250.0.{len(attacks) + 1}",
                dst_port=signature.dst_port or 80,
            )
        )
    merged = inject_attacks(trace, attacks) if attacks else trace
    count = write_trace(args.out, merged)
    print(f"wrote {count} packets to {args.out}"
          + (f" ({len(attacks)} attack flows)" if attacks else ""))
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    rules = _load_ruleset(args.rules)
    policy = SplitPolicy(piece_length=args.piece_length)
    split = split_ruleset(rules, policy)
    print(f"signatures: {len(rules)}")
    print(f"splittable: {len(split.splits)}   unsplittable: {len(split.unsplittable)}")
    print(f"pieces: {split.piece_count}   small-packet threshold B: "
          f"{split.small_packet_threshold} bytes")
    if args.histogram:
        print("pattern-length histogram:")
        for length, count in rules.length_histogram().items():
            print(f"  {length:>4} bytes: {'#' * count} ({count})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    import random

    from .signatures import ByteFrequencyModel, lint_ruleset
    from .signatures.lint import LintLevel
    from .traffic import benign_payload

    rules = _load_ruleset(args.rules)
    model = None
    if not args.no_model:
        model = ByteFrequencyModel()
        rng = random.Random(99)
        for _ in range(30):
            model.train(benign_payload(rng, 4000))
    findings = lint_ruleset(
        rules, SplitPolicy(piece_length=args.piece_length), model
    )
    errors = sum(1 for f in findings if f.level is LintLevel.ERROR)
    warnings = sum(1 for f in findings if f.level is LintLevel.WARNING)
    if args.json:
        json.dump(
            {
                "rules": len(rules),
                "errors": errors,
                "warnings": warnings,
                "findings": [
                    {
                        "level": f.level.value,
                        "sid": f.sid,
                        "code": f.code,
                        "message": f.message,
                    }
                    for f in findings
                ],
            },
            sys.stdout,
            indent=2,
        )
        sys.stdout.write("\n")
    else:
        for finding in findings:
            print(finding)
        print(f"{len(rules)} rules: {len(findings)} findings, {errors} errors")
    if errors:
        return 1
    if args.strict and warnings:
        return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .analysis import characterize, format_stats

    trace = list(read_trace(args.pcap))
    for line in format_stats(characterize(trace)):
        print(line)
    return 0


def cmd_strategies(_args: argparse.Namespace) -> int:
    for name in sorted(STRATEGIES):
        strategy = STRATEGIES[name]
        print(f"{name:<18} {strategy.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitdetect",
        description="Split-Detect IPS (SIGCOMM 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an IPS over a pcap file")
    run.add_argument("pcap")
    run.add_argument("--rules", help="Snort-content rules file (default: bundled corpus)")
    run.add_argument("--engine", choices=("split", "conventional", "naive"), default="split")
    run.add_argument(
        "--state-backend",
        choices=("dict", "table", "sketch"),
        default="dict",
        help="fast-path flow state: 'dict' (unbounded exact map, default), "
             "'table' (fixed set-associative flow table), or 'sketch' "
             "(cold slots + count-min anomaly sketch + exact hot set -- "
             "constant memory at any flow count)",
    )
    run.add_argument("--piece-length", type=int, default=8)
    run.add_argument("--max-alerts", type=int, default=20)
    run.add_argument(
        "--batch-size",
        type=_positive_int,
        default=256,
        help="packets per process_batch call (amortizes the fast-path scan)",
    )
    run.add_argument(
        "--telemetry-out",
        type=_writable_file,
        metavar="PATH",
        help="write the run's telemetry snapshot to this file",
    )
    run.add_argument(
        "--telemetry-format",
        choices=("json", "prometheus"),
        default="json",
        help="exposition format for --telemetry-out (default: json)",
    )
    run.add_argument(
        "--no-telemetry",
        action="store_true",
        help="run with the no-op registry (skips all instrumentation)",
    )
    run.add_argument(
        "--trace-out",
        type=_writable_file,
        metavar="PATH",
        help="write the flight-recorder span dump as JSONL (one span per "
             "line; feed it to 'splitdetect explain')",
    )
    run.add_argument(
        "--trace-sample",
        type=_positive_int,
        default=1,
        metavar="N",
        help="trace 1-in-N flows by trace id (default: 1 = every flow); "
             "diverted flows are always traced in full",
    )
    run.add_argument(
        "--serve-telemetry",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics, /healthz and /traces over HTTP on this "
             "port for the duration of the run (0 picks a free port)",
    )
    run.add_argument(
        "--serve-hold",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="keep the telemetry endpoint up this long after the run "
             "finishes (default: stop immediately)",
    )
    run.add_argument(
        "--workers",
        type=_positive_int,
        default=0,
        metavar="N",
        help="shard the split engine across N worker processes behind a "
             "flow-consistent hash (default: single-process)",
    )
    pressure = run.add_mutually_exclusive_group()
    pressure.add_argument(
        "--block",
        action="store_true",
        help="block the feeder when a shard queue is full (lossless; default)",
    )
    pressure.add_argument(
        "--shed",
        action="store_true",
        help="drop batches when a shard queue is full, counting every "
             "shed packet",
    )
    run.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=8,
        help="bounded per-worker queue depth, in batches (default: 8)",
    )
    run.add_argument(
        "--evict-interval",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="sweep idle flow state every SECONDS of packet time "
             "(default: no automatic eviction)",
    )
    run.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        metavar="N",
        help="per-shard restart budget: a dead/hung/erroring worker is "
             "replaced up to N times with a fresh engine, the gap "
             "reported as a degraded interval (default 0: the first "
             "worker failure ends the run with exit status 1)",
    )
    run.add_argument(
        "--restart-backoff",
        type=_positive_float,
        default=0.05,
        metavar="SECONDS",
        help="base of the supervisor's exponential restart backoff "
             "(default: 0.05)",
    )
    run.add_argument(
        "--inject",
        action="append",
        metavar="FAULT",
        help="inject a deterministic fault, e.g. 'crash:shard=1,at=500' "
             "or 'stall:shard=0,at=100,seconds=0.2'; kinds: crash, hang, "
             "stall, slowdown, decode, skew (repeatable; needs --workers)",
    )
    run.set_defaults(func=cmd_run)

    serve = sub.add_parser(
        "serve",
        help="run as a long-lived service: socket/tail/replay ingestion, "
             "per-tenant rules, adaptive shedding, hot reload",
    )
    serve.add_argument(
        "source",
        help="ingest spec: replay:PATH (pcap, once), tail:PATH (follow a "
             "growing pcap), tcp:HOST:PORT or unix:PATH (framed-record "
             "socket protocol; see DESIGN.md 'Service mode')",
    )
    serve.add_argument("--rules", help="default tenant's rules file "
                       "(default: bundled corpus)")
    serve.add_argument(
        "--tenant",
        action="append",
        metavar="NAME=SELECTORS:RULES",
        help="add a tenant with its own signature set, e.g. "
             "'acme=10.1.0.0/16:acme.rules' (repeatable; selectors are "
             "comma-separated values of --tenant-key)",
    )
    serve.add_argument(
        "--tenant-key",
        choices=("dst-ip", "src-ip", "dst-port"),
        default="dst-ip",
        help="how packets map to tenants (default: dst-ip, fragment-safe)",
    )
    serve.add_argument(
        "--reload-token",
        metavar="TOKEN",
        help="enable authenticated POST /reload on the telemetry endpoint "
             "(SIGHUP always reloads; without a token the HTTP path stays "
             "disabled)",
    )
    serve.add_argument("--piece-length", type=int, default=8)
    serve.add_argument("--max-alerts", type=int, default=20)
    serve.add_argument(
        "--state-backend",
        choices=("dict", "table", "sketch"),
        default="dict",
        help="fast-path flow state backend (see 'run --help')",
    )
    serve.add_argument("--batch-size", type=_positive_int, default=256,
                       help="records per ingest poll and per engine batch")
    serve.add_argument(
        "--poll-timeout",
        type=_positive_float,
        default=0.25,
        metavar="SECONDS",
        help="how long one poll waits for traffic; also the latency bound "
             "on noticing stop/reload while idle (default: 0.25)",
    )
    serve.add_argument(
        "--ingest-buffer",
        type=_positive_int,
        default=4096,
        metavar="RECORDS",
        help="bounded socket ingest buffer; its fill fraction drives the "
             "load shedder (default: 4096)",
    )
    serve.add_argument(
        "--duration",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="stop after this much wall time (default: run until signaled)",
    )
    serve.add_argument(
        "--max-packets",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop after ingesting N records (default: unbounded)",
    )
    serve.add_argument("--no-shed", action="store_true",
                       help="disable adaptive load shedding entirely")
    serve.add_argument(
        "--shed-high",
        type=_positive_float,
        default=0.75,
        metavar="FRACTION",
        help="ingest-buffer fill fraction that raises the shed level "
             "(default: 0.75)",
    )
    serve.add_argument(
        "--shed-low",
        type=_positive_float,
        default=0.25,
        metavar="FRACTION",
        help="fill fraction below which the shed level may step down "
             "(default: 0.25)",
    )
    serve.add_argument(
        "--shed-p99-budget-us",
        type=float,
        default=0.0,
        metavar="MICROSECONDS",
        help="fast-path stage p99 latency budget; exceeding it raises the "
             "shed level (default: 0 = backlog signal only)",
    )
    serve.add_argument(
        "--evict-interval",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="sweep idle flow state every SECONDS of packet time",
    )
    serve.add_argument("--no-telemetry", action="store_true",
                       help="run with the no-op registry")
    serve.add_argument("--telemetry-out", type=_writable_file, metavar="PATH",
                       help="write the final telemetry snapshot here")
    serve.add_argument("--telemetry-format", choices=("json", "prometheus"),
                       default="json")
    serve.add_argument("--trace-out", type=_writable_file, metavar="PATH",
                       help="write the flight-recorder span dump as JSONL")
    serve.add_argument("--trace-sample", type=_positive_int, default=1,
                       metavar="N", help="trace 1-in-N flows")
    serve.add_argument(
        "--serve-telemetry",
        type=int,
        default=None,
        metavar="PORT",
        help="expose /metrics /healthz /traces /shed /tenants (and POST "
             "/reload with --reload-token) on this port (0 picks a free one)",
    )
    serve.add_argument("--serve-hold", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="keep the endpoint up after the drain")
    serve.set_defaults(func=cmd_serve)

    gen = sub.add_parser("generate", help="synthesize a trace to pcap")
    gen.add_argument("out")
    gen.add_argument("--flows", type=int, default=100)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--rules", help="rules file supplying the attack signature")
    gen.add_argument(
        "--attack",
        action="append",
        metavar="STRATEGY",
        help="inject an attack flow using this evasion strategy (repeatable)",
    )
    gen.set_defaults(func=cmd_generate)

    rules = sub.add_parser("rules", help="signature corpus statistics")
    rules.add_argument("--rules")
    rules.add_argument("--piece-length", type=int, default=8)
    rules.add_argument("--histogram", action="store_true")
    rules.set_defaults(func=cmd_rules)

    lint = sub.add_parser("lint", help="check a rules file for Split-Detect fitness")
    lint.add_argument("--rules")
    lint.add_argument("--piece-length", type=int, default=8)
    lint.add_argument("--no-model", action="store_true",
                      help="skip the benign-traffic noisy-piece analysis")
    lint.add_argument("--strict", action="store_true",
                      help="exit non-zero on warnings too (CI mode)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON for machine consumption")
    lint.set_defaults(func=cmd_lint)

    explain = sub.add_parser(
        "explain",
        help="reconstruct a flow's decision timeline from a --trace-out dump",
    )
    explain.add_argument("trace_file", help="JSONL span dump written by --trace-out")
    explain.add_argument(
        "selector",
        nargs="?",
        help="trace id (16-hex, prefix ok) or flow substring; omit to "
             "list the traced flows",
    )
    explain.set_defaults(func=cmd_explain)

    stats = sub.add_parser("stats", help="characterize a pcap trace")
    stats.add_argument("pcap")
    stats.set_defaults(func=cmd_stats)

    strategies = sub.add_parser("strategies", help="list the evasion catalog")
    strategies.set_defaults(func=cmd_strategies)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
