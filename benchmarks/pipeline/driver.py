"""The measured side of the pipeline ledger (runs in a fresh child interpreter).

``run.py`` builds the input and starts ``python driver.py`` with the job on stdin;
this file sets the engine up, drives the pcap through the product's
public entry points, checks the outputs and prints one JSON object.
Keeping it in its own process makes ``peak_rss_mb`` the pipeline's own
high-water mark (the trace generator never ran in this address space)
and gives every invocation cold module state.

Two modes, same inputs:

- untraced (``trace: false``): whole-file passes through the public
  driver until ``seconds`` have elapsed, at least two (medians over passes), the
  memory high-water mark, then ``setup_s`` from repeated rule-build +
  engine construction.
- traced (``trace: true``): one untraced pass (the ``trace.overhead_ratio``
  base and the digest oracle), then one pass through a replay of the
  same loop built from public parts with :mod:`spans` wrappers on every
  layer boundary, plus the side measurements that only feed layer
  metrics (telemetry-on pass, shard routing cost, batch-vs-serve tax).
"""

from __future__ import annotations

import json
import pickle
import sys
from dataclasses import dataclass, field
from statistics import median, median_high, median_low, quantiles
from time import perf_counter, perf_counter_ns
from typing import Any

from repro.pcap import read_column_batches, read_records
from repro.runtime import (
    EngineSpec,
    Quarantine,
    RunnerConfig,
    RuntimeReport,
    SerialRunner,
    ShardProcessor,
    ShardRouter,
    merge_shard_reports,
    rebatch_columns,
)
from repro.service import (
    DEFAULT_TENANT,
    ReplaySource,
    ServiceConfig,
    SplitDetectService,
    TenantTable,
)
from repro.signatures import RuleSet, Signature, load_bundled_rules
from spans import LAYERS, SPAN_LAYER, SpanRecorder, instrument
from traces import ATTACK_PORT, ATTACK_SID, ATTACK_SIGNATURE, PREFIX

BATCH = 256
CONFIG = RunnerConfig(ingest="columnar")
OBSERVED = RunnerConfig(ingest="columnar", telemetry=True, trace=True)


@dataclass(frozen=True)
class Workload:
    trace: str
    """Key into ``traces.SPECS``."""
    bundled: bool
    """Bundled corpus + sid 3001; otherwise sid 3001 alone."""
    serve: bool = False
    """Drive ``SplitDetectService`` instead of ``SerialRunner.run_columnar``."""
    observed_pair: bool = False
    """Also run with telemetry + flight recorder on (traced mode only)."""


WORKLOADS = {
    "benign_bulk": Workload("benign_bulk", bundled=True),
    "small_pkt": Workload("small_pkt", bundled=False, observed_pair=True),
    "evasion_mix": Workload("evasion_mix", bundled=False, observed_pair=True),
    "serve_replay": Workload("small_pkt", bundled=False, serve=True),
}


def make_spec(bundled: bool) -> EngineSpec:
    rules = load_bundled_rules() if bundled else RuleSet()
    rules.add(Signature(sid=ATTACK_SID, pattern=ATTACK_SIGNATURE, msg="ledger manifest target"))
    return EngineSpec(rules=rules)


@dataclass
class PassResult:
    """One whole-file pass, reduced to what the checks and metrics need."""

    wall_s: float
    offered: int
    report: RuntimeReport
    cycles_ns: list[int] = field(default_factory=list)
    source_lost: int = 0
    diverted: frozenset[tuple[str, int]] = frozenset()
    """(src, sport) of diverted flows; only a traced pass can see them."""

    @property
    def examined(self) -> int:
        return self.report.packets

    @property
    def pps(self) -> float:
        return self.examined / self.wall_s

    def accounting_closed(self) -> bool:
        report = self.report
        return (
            self.examined
            + report.shed_packets
            + report.quarantined_packets
            + report.degraded_packets
            + self.source_lost
            == self.offered
        )


# -- untraced drivers: the product's public entry points -----------------


def _watch_batches(batches: Any, cycles: list[int]) -> Any:
    """Time from handing a batch over to being asked for the next one."""
    for batch in batches:
        handed = perf_counter_ns()
        yield batch
        cycles.append(perf_counter_ns() - handed)


class _WatchedSource:
    """A service source that times the gap between one poll and the next."""

    def __init__(self, inner: ReplaySource, cycles: list[int]) -> None:
        self.inner = inner
        self.cycles = cycles
        self._handed = 0

    @property
    def exhausted(self) -> bool:
        return self.inner.exhausted

    def poll(self, max_records: int, timeout: float) -> list[tuple[float, bytes]]:
        if self._handed:
            self.cycles.append(perf_counter_ns() - self._handed)
        records = self.inner.poll(max_records, timeout)
        self._handed = perf_counter_ns()
        return records

    def state(self) -> dict[str, Any]:
        return self.inner.state()

    def close(self) -> None:
        self.inner.close()


def batch_pass(spec: EngineSpec, path: str, offered: int, config: RunnerConfig) -> PassResult:
    cycles: list[int] = []
    start = perf_counter()
    report = SerialRunner(spec, shards=1, config=config).run_columnar(
        _watch_batches(read_column_batches(path, batch_size=BATCH), cycles)
    )
    return PassResult(perf_counter() - start, offered, report, cycles)


def serve_pass(spec: EngineSpec, path: str, config: RunnerConfig) -> PassResult:
    cycles: list[int] = []
    start = perf_counter()
    source = _WatchedSource(ReplaySource(read_records(path)), cycles)
    served = SplitDetectService(
        source, TenantTable(spec, [], config=config), config=ServiceConfig(batch_size=BATCH)
    ).run()
    return PassResult(
        perf_counter() - start,
        served.input_records,
        served.runtime,
        cycles,
        source_lost=served.lost_packets,
    )


def one_pass(workload: Workload, spec: EngineSpec, job: dict, config: RunnerConfig) -> PassResult:
    if workload.serve:
        return serve_pass(spec, job["pcap"], config)
    return batch_pass(spec, job["pcap"], job["facts"]["packets"], config)


def prefix_equivalence(workload: Workload, spec: EngineSpec, job: dict) -> bool:
    """Driver under test == object-ingest oracle on the trace's first records.

    Run before the timed passes, on the small prefix pcap, so it is also
    their warm-up (imports, lazy regex compiles, allocator) without ever
    holding the whole capture in memory.
    """
    prefix = dict(job, pcap=job["prefix_pcap"], facts={"packets": PREFIX})
    oracle = SerialRunner(spec, shards=1, config=RunnerConfig()).run(read_records(prefix["pcap"]))
    return one_pass(workload, spec, prefix, CONFIG).report.digest() == oracle.digest()


# -- traced drivers: the same loops, rebuilt from public parts ------------


def _watch_slow_peak(processor: ShardProcessor, peak: list[int]) -> None:
    inner = processor.feed
    slow_path = processor.engine.slow_path

    def feed(batch: Any) -> None:
        inner(batch)
        if slow_path.active_flows > peak[0]:
            peak[0] = slow_path.active_flows

    processor.feed = feed  # type: ignore[method-assign]


def _diverted(processor: ShardProcessor) -> frozenset[tuple[str, int]]:
    return frozenset(
        (diversion.flow.src, diversion.flow.src_port)
        for diversion in processor.engine.diversions
    )


def traced_batch_pass(
    spec: EngineSpec, path: str, offered: int, recorder: SpanRecorder, slow_peak: list[int]
) -> tuple[PassResult, ShardProcessor]:
    """``SerialRunner.run_columnar`` at one shard, replayed under spans."""
    start = perf_counter()
    with recorder.span("run"):
        with recorder.span("core.engine.build"):
            processor = ShardProcessor(0, spec, CONFIG, allow_process_faults=False)
        instrument(recorder, processor)
        _watch_slow_peak(processor, slow_peak)
        quarantine = Quarantine()
        batches_routed = 0
        batches = recorder.iterate(
            "pcap.read", lambda: read_column_batches(path, batch_size=BATCH)
        )
        for batch in rebatch_columns(batches, CONFIG.batch_size):
            for exc in batch.quarantined:
                quarantine.add(exc)
            if not batch:
                continue
            processor.feed(batch)
            batches_routed += 1
        shard_report = processor.finish()
        with recorder.span("runtime.merge"):
            report = merge_shard_reports(
                [shard_report],
                mode="serial",
                workers=1,
                wall_seconds=perf_counter() - start,
                batches_routed=batches_routed,
                quarantined=dict(quarantine.counts),
            )
    result = PassResult(perf_counter() - start, offered, report, diverted=_diverted(processor))
    return result, processor


def traced_serve_pass(
    spec: EngineSpec, path: str, recorder: SpanRecorder, slow_peak: list[int]
) -> tuple[PassResult, ShardProcessor]:
    start = perf_counter()
    with recorder.span("run"):
        with recorder.span("core.engine.build"):
            table = TenantTable(spec, [], config=CONFIG)
        processor = table.processor(DEFAULT_TENANT)
        instrument(recorder, processor)
        _watch_slow_peak(processor, slow_peak)
        source = ReplaySource(read_records(path))
        recorder.wrap(source, "poll", "pcap.read")
        service = SplitDetectService(source, table, config=ServiceConfig(batch_size=BATCH))
        recorder.wrap(service, "run", "service.run")
        served = service.run()
    result = PassResult(
        perf_counter() - start,
        served.input_records,
        served.runtime,
        source_lost=served.lost_packets,
        diverted=_diverted(processor),
    )
    return result, processor


def route_cost(path: str) -> tuple[int, int, int]:
    """(route ns, pickled bytes, rows) of splitting every batch two ways.

    What ``ParallelRunner`` would add per packet at two workers: the
    ``shard_rows`` + ``select`` split, and the bytes of the compacted
    sub-batches it would pickle through its queues.  Measured beside the
    pipeline, never inside a timed pass.
    """
    router = ShardRouter(2, CONFIG.shard_policy)
    route_ns = xfer_bytes = rows = 0
    for batch in read_column_batches(path, batch_size=BATCH):
        start = perf_counter_ns()
        parts = [batch.select(part) for part in batch.shard_rows(router) if part]
        route_ns += perf_counter_ns() - start
        xfer_bytes += sum(len(pickle.dumps(part.compact())) for part in parts)
        rows += len(batch)
    return route_ns, xfer_bytes, rows


# -- output checks ----------------------------------------------------------


def score(result: PassResult, manifest: list[dict]) -> dict[str, Any]:
    """Failure accounting for one pass.

    Operations are packets offered plus manifest flows.  A packet fails
    when it was not examined (shed, quarantined, lost); a manifest flow
    fails when it raised no alert and -- where the pass can see
    diversions at all -- was not diverted either.  A sid-3001 alert on
    any other flow, or an open accounting identity, makes the output
    incorrect rather than merely lossy.
    """
    expected = {(entry["src"], ATTACK_PORT) for entry in manifest}
    alerted: set[tuple[str, int]] = set()
    false_alerts = 0
    for alert in result.report.alerts:
        flow = alert.flow
        if flow is None:
            continue
        hit = expected.intersection(((flow.src, flow.src_port), (flow.dst, flow.dst_port)))
        alerted |= hit
        if not hit and alert.sid == ATTACK_SID:
            false_alerts += 1
    undetected = sorted(expected - alerted - result.diverted)
    return {
        "attempted": result.offered + len(manifest),
        "failed": result.offered - result.examined + len(undetected),
        "accounting_closed": result.accounting_closed(),
        "false_alerts": false_alerts,
        "undetected": [src for src, _ in undetected],
    }


def _verdict(scores: list[dict], checks: dict[str, bool]) -> dict[str, Any]:
    checks = dict(
        checks,
        accounting_closed=all(s["accounting_closed"] for s in scores),
        no_false_alerts=not any(s["false_alerts"] for s in scores),
    )
    return {
        "correct": all(checks.values()),
        "attempted": sum(s["attempted"] for s in scores),
        "failed": sum(s["failed"] for s in scores),
        "checks": checks,
        "undetected": sorted({src for s in scores for src in s["undetected"]}),
    }


# -- the two modes ------------------------------------------------------------


def _peak_rss_kb() -> int:
    """This interpreter's resident high-water mark (``VmHWM``).

    Not ``ru_maxrss``: on exec Linux folds the old address space's peak
    into it, so a child started by a parent that has just built a trace
    reports the *parent's* 250 MB even when it never exceeds 45 MB itself.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _p90(samples: list[int]) -> float:
    return quantiles(samples, n=10)[-1] if len(samples) > 1 else float(samples[0])


def run_untraced(job: dict) -> dict[str, Any]:
    workload = WORKLOADS[job["workload"]]
    spec = make_spec(workload.bundled)
    equivalent = prefix_equivalence(workload, spec, job)
    passes: list[PassResult] = []
    began = perf_counter()
    while len(passes) < 2 or perf_counter() - began < job["seconds"]:
        passes.append(one_pass(workload, spec, job, CONFIG))
    peak_rss_kb = _peak_rss_kb()
    # Set-up is timed after the passes and after the memory reading:
    # repeated 32 MB table builds ahead of them left the heap in one of
    # two states and made peak RSS bimodal (+-5 %) across seeds.  At
    # least three, and a second's worth: the sid-3001-only set-up takes
    # ~5 ms, the bundled corpus ~1 s.
    setup_samples: list[float] = []
    began = perf_counter()
    while len(setup_samples) < 3 or perf_counter() - began < 1.0:
        start = perf_counter()
        ShardProcessor(0, make_spec(workload.bundled), CONFIG, allow_process_faults=False)
        setup_samples.append(perf_counter() - start)
    # The host's noise is one-sided (10-30 s episodes that slow a pass by
    # up to 2x), so an even number of passes reports the faster middle
    # value, not the mean of the two: with two passes, one episode then
    # costs nothing instead of half its size.
    wall = median_low(p.wall_s for p in passes)
    cycles = [c for p in passes for c in p.cycles_ns]
    verdict = _verdict(
        [score(p, job["manifest"]) for p in passes],
        {
            "prefix_digest_equal": equivalent,
            "passes_agree": len({p.report.digest() for p in passes}) == 1,
        },
    )
    return {
        **verdict,
        "metrics": {
            "pps": median_high(p.pps for p in passes),
            "payload_mbps": job["facts"]["payload_bytes"] * 8 / 1e6 / wall,
            "peak_rss_mb": peak_rss_kb / 1024,
            "setup_s": median(setup_samples),
            "cycle_p50_ms": median_low(median(p.cycles_ns) for p in passes) / 1e6,
        },
        "facts": {
            "passes": len(passes),
            "pass_wall_s": [p.wall_s for p in passes],
            "setup_samples": len(setup_samples),
            "cycle_samples": len(cycles),
            "cycle_p90_ms": _p90(cycles) / 1e6,
            "digest": passes[0].report.digest(),
            "alerts": len(passes[0].report.alerts),
            "diverted_flows": passes[0].report.diverted_flows,
        },
    }


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    traced: PassResult,
    processor: ShardProcessor,
    facts: dict,
    slow_peak: int,
) -> dict[str, float]:
    """Everything the traced pass alone determines (side ratios are added by the caller)."""
    totals = recorder.totals()
    wall_ns = totals["run"]["total_ns"]
    packets = traced.examined
    report = traced.report
    stats = report.stats
    automaton = processor.engine.fast_path.automaton
    scan_stats = automaton.scan_stats()
    rows = totals["core.engine.row"]
    slow = totals["core.slowpath"]
    read_ns = totals["pcap.read"]["total_ns"]
    metrics = {
        "pcap.read_ns_per_pkt": _per(read_ns, packets),
        "pcap.read_ns_per_byte": _per(read_ns, facts["capture_bytes"]),
        "core.engine.self_ns_per_pkt": _per(totals["core.engine.batch"]["self_ns"], packets),
        "core.engine.row_self_ns_per_call": _per(rows["self_ns"], rows["calls"]),
        "core.engine.materialized_row_share": _per(rows["calls"], packets),
        "core.engine.diverted_pkt_share": _per(stats.slow_packets, stats.packets_total),
        "core.engine.diverted_byte_share": report.diversion_byte_fraction,
        "core.engine.build_s": totals["core.engine.build"]["total_ns"] / 1e9,
        "core.fastpath.cols_self_ns_per_pkt": _per(
            totals["core.fastpath.cols"]["self_ns"], packets
        ),
        "core.fastpath.obj_self_ns_per_call": _per(
            totals["core.fastpath.obj"]["self_ns"], totals["core.fastpath.obj"]["calls"]
        ),
        "core.state.tracked_flows_peak": report.peak_flows,
        "core.state.bytes_peak": report.peak_state_bytes,
        "match.scan_ns_per_byte": _per(totals["match.scan"]["self_ns"], stats.fast_bytes_scanned),
        "match.scanned_bytes_per_payload_byte": _per(
            scan_stats["scanned_bytes"], stats.fast_bytes_scanned
        ),
        "match.prefilter_skip_rate": scan_stats["prefilter_skip_rate"],
        "match.table_bytes": sum(
            side.compiled_table_bytes()
            for side in (automaton.sensitive, automaton.folded)
            if side is not None
        ),
        "core.slowpath.self_ns_per_pkt": _per(slow["self_ns"], slow["calls"]),
        "core.slowpath.ns_per_byte": _per(slow["self_ns"], stats.slow_bytes_normalized),
        "core.slowpath.calls": slow["calls"],
        "core.slowpath.active_flows_peak": slow_peak,
        "runtime.feed_self_ns_per_pkt": _per(totals["runtime.feed"]["self_ns"], packets),
        "runtime.merge_ms": (
            totals["runtime.finish"]["total_ns"] + totals["runtime.merge"]["total_ns"]
        )
        / 1e6,
        "service.self_ns_per_pkt": _per(totals["service.run"]["self_ns"], packets),
        "service.shed_packets": report.shed_packets,
        "trace.accounted_share": 1.0 - _per(totals["run"]["self_ns"], wall_ns),
    }
    for layer in LAYERS:
        layer_ns = sum(
            row["self_ns"] for name, row in totals.items() if SPAN_LAYER[name] == layer
        )
        metrics[f"{layer}.share"] = _per(layer_ns, wall_ns)
    return metrics


def run_traced(job: dict) -> dict[str, Any]:
    """Per-layer metrics; a metric a workload cannot have is reported as 0."""
    workload = WORKLOADS[job["workload"]]
    path, facts = job["pcap"], job["facts"]
    spec = make_spec(workload.bundled)
    equivalent = prefix_equivalence(workload, spec, job)
    plain = one_pass(workload, spec, job, CONFIG)
    recorder = SpanRecorder()
    slow_peak = [0]
    if workload.serve:
        traced, processor = traced_serve_pass(spec, path, recorder, slow_peak)
    else:
        traced, processor = traced_batch_pass(spec, path, facts["packets"], recorder, slow_peak)
    if job["spans_out"]:
        recorder.dump(job["spans_out"])
    metrics = layer_metrics(recorder, traced, processor, facts, slow_peak[0])
    metrics["trace.overhead_ratio"] = plain.pps / traced.pps
    metrics["telemetry.combined_overhead_ratio"] = (
        plain.pps / one_pass(workload, spec, job, OBSERVED).pps if workload.observed_pair else 0.0
    )
    if workload.serve:
        batch = batch_pass(spec, path, facts["packets"], CONFIG)
        metrics["service.tax_ratio"] = batch.pps / plain.pps
        metrics["service.cycle_p90_ms"] = _p90(plain.cycles_ns) / 1e6
        route_ns = xfer_bytes = rows = 0
    else:
        metrics["service.tax_ratio"] = metrics["service.cycle_p90_ms"] = 0.0
        route_ns, xfer_bytes, rows = route_cost(path)
    metrics["runtime.route_ns_per_pkt"] = _per(route_ns, rows)
    metrics["runtime.xfer_bytes_per_pkt"] = _per(xfer_bytes, rows)
    verdict = _verdict(
        [score(plain, job["manifest"]), score(traced, job["manifest"])],
        {
            "prefix_digest_equal": equivalent,
            "traced_digest_equal": plain.report.digest() == traced.report.digest(),
            "span_arithmetic": not recorder.check(),
        },
    )
    return {
        **verdict,
        "metrics": metrics,
        "facts": {
            "spans": len(recorder),
            "traced_wall_s": traced.wall_s,
            "untraced_wall_s": plain.wall_s,
            "cycle_samples": len(plain.cycles_ns),
            "digest": traced.report.digest(),
        },
    }


def main() -> int:
    job = json.load(sys.stdin)
    result = run_traced(job) if job["trace"] else run_untraced(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
