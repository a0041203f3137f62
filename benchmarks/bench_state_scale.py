"""State-backend scale gate -- sketch state must stay bounded at 1M flows.

Three contracts of the ``--state-backend sketch`` mode (DESIGN.md,
"State backends"):

- **bounded state**: the fast path's provisioned per-flow state under
  the sketch backend is *constant* across 10k / 100k / 1M concurrent
  flows, while the exact dict backend grows linearly.  The 1M-flow
  sketch figure must also undercut both the dict extrapolated to 1M
  flows and ``MAX_CONVENTIONAL_FRACTION`` of the conventional
  reassembly provisioning for the same connection count.
- **fidelity**: against an exact-dict oracle on an interleaved
  multi-flow trace (in-order and out-of-order traffic mixed), the
  sketch backend's per-packet divert decisions may only disagree by
  *missing* diverts (a recycled cold slot forgets a flow, the monitor
  picks it up midstream).  False diverts come only from 16-bit
  fingerprint collisions; their rate is gated at
  ``FALSE_DIVERT_BUDGET``.
- **merge soundness**: the sharded runtime with a sketch-backed fast
  path produces the same :func:`repro.runtime.equivalence_digest`
  serial vs parallel at 4 workers, and the bucket-wise merged anomaly
  sketch preserves the summed counts.

The machine-readable results land in ``BENCH_state.json`` at the repo
root; CI uploads it as an artifact and ``bench_trend.py`` gates the
machine-independent numerics.  Runnable standalone::

    PYTHONPATH=src python benchmarks/bench_state_scale.py
"""

import json
import sys
import time
from pathlib import Path

from exp_common import emit, gauntlet_ruleset, mixed_trace
from repro.core import FastPath, FastPathConfig
from repro.metrics import provisioned_conventional_state
from repro.packet import IP_PROTO_TCP, FlowTuple
from repro.packet.tcp import TCP_ACK, TCP_SYN
from repro.runtime import EngineSpec, ParallelRunner, RunnerConfig, SerialRunner
from repro.signatures import RuleSet, split_ruleset

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Concurrent-flow counts driven through each backend.  The dict sweep
#: stops at 100k (its growth is linear by construction; 1M exact-dict
#: entries are *extrapolated* for the comparison rather than allocated).
SKETCH_SCALE_POINTS = (10_000, 100_000, 1_000_000)
DICT_SCALE_POINTS = (10_000, 100_000)

#: Flow count for the divert-fidelity oracle run (every flow concurrent).
ORACLE_FLOWS = 20_000
#: Every Nth oracle flow delivers its first two data segments swapped,
#: so the exact monitor diverts it OUT_OF_ORDER.
ORACLE_OOO_STRIDE = 20

#: Sketch-vs-exact divert disagreements of the *false* kind (sketch
#: diverts, oracle does not) per packet must stay at or below this.
FALSE_DIVERT_BUDGET = 0.01

#: Sketch provisioning at 1M flows must be under this fraction of the
#: conventional (per-connection reassembly buffer) provisioning.
MAX_CONVENTIONAL_FRACTION = 0.10

#: Data bytes per segment.
_PAYLOAD_LEN = 64
#: 10.200.0.1, every flow's destination.
_DST = 0x0AC80001


def monitor_fastpath(backend: str) -> FastPath:
    """A fast path with no signatures: pure per-flow monitor + backend.

    The scale sweep measures *state*, not matching; an empty rule set
    keeps the automaton out of the way so a million flows stay cheap.
    """
    config = FastPathConfig(state_backend=backend, check_tiny=False)
    return FastPath(split_ruleset(RuleSet()), config)


def flow_key(i: int) -> FlowTuple:
    """The numeric five-tuple of synthetic flow *i*: source 10.x.y.z
    from its low 24 bits (unique per flow), to 10.200.0.1:80."""
    return (0x0A000000 | (i & 0xFFFFFF), _DST, 1024 + (i & 0x3FFF), 80, IP_PROTO_TCP)


def diverts(fast: FastPath, i: int, seq: int, plen: int, flags: int = TCP_ACK) -> bool:
    """One TCP segment of flow *i* (TTL 64, no piece hits) through the
    fast path's one decision function; True when it diverts."""
    result = fast.process_columns(flow_key(i), None, IP_PROTO_TCP, plen, flags, 64, seq, 0.0)
    return result is not None and result.divert is not None


def run_scale_point(backend: str, flows: int) -> dict:
    """Drive one data packet per flow; report peak provisioned state."""
    fast = monitor_fastpath(backend)
    peak = fast.state_bytes()
    start = time.perf_counter()
    for i in range(flows):
        diverts(fast, i, seq=1000, plen=_PAYLOAD_LEN)
        if i % 100_000 == 0:
            peak = max(peak, fast.state_bytes())
    wall = time.perf_counter() - start
    peak = max(peak, fast.state_bytes())
    return {
        "backend": backend,
        "flows": flows,
        "peak_state_bytes": peak,
        "tracked_flows": fast.tracked_flows,
        "slot_recycles": fast.table_evictions,
        "wall_seconds": round(wall, 3),
        "pps": round(flows / wall, 1),
    }


def oracle_trace() -> list[tuple[int, int, int, int]]:
    """Interleaved SYN + 3 data segments per flow, all flows concurrent,
    as ``(flow, seq, payload length, flags)``.

    Stage-major order (every flow's SYN, then every flow's first data
    segment, ...) keeps all ``ORACLE_FLOWS`` flows alive at once --
    worst case for cold-slot collisions.  OOO flows swap their first
    two data segments, which the exact monitor diverts.
    """
    base = 1000
    stages: list[list[tuple[int, int, int]]] = [[] for _ in range(4)]
    for i in range(ORACLE_FLOWS):
        ooo = (i % ORACLE_OOO_STRIDE) == ORACLE_OOO_STRIDE - 1
        data = [
            (i, base + 1, _PAYLOAD_LEN),
            (i, base + 1 + 64, _PAYLOAD_LEN),
            (i, base + 1 + 128, _PAYLOAD_LEN),
        ]
        if ooo:
            data[0], data[1] = data[1], data[0]
        stages[0].append((i, base, 0))
        for stage, item in enumerate(data, start=1):
            stages[stage].append(item)
    return [
        (i, seq, plen, TCP_ACK if plen else TCP_SYN)
        for stage in stages
        for (i, seq, plen) in stage
    ]


def run_divert_oracle() -> dict:
    """Packet-by-packet divert comparison: sketch vs exact dict."""
    trace = oracle_trace()
    exact = monitor_fastpath("dict")
    sketch = monitor_fastpath("sketch")
    diverts_exact = diverts_sketch = false_diverts = missed_diverts = 0
    for packet in trace:
        want = diverts(exact, *packet)
        got = diverts(sketch, *packet)
        diverts_exact += want
        diverts_sketch += got
        false_diverts += got and not want
        missed_diverts += want and not got
    return {
        "flows": ORACLE_FLOWS,
        "packets": len(trace),
        "ooo_flows": ORACLE_FLOWS // ORACLE_OOO_STRIDE,
        "diverts_exact": diverts_exact,
        "diverts_sketch": diverts_sketch,
        "false_diverts": false_diverts,
        "missed_diverts": missed_diverts,
        "false_divert_rate": round(false_diverts / len(trace), 6),
        "budget_rate": FALSE_DIVERT_BUDGET,
    }


def run_digest_equality() -> dict:
    """Serial(4) vs parallel(4) with a sketch-backed fast path."""
    trace = mixed_trace(300)
    spec = EngineSpec(
        rules=gauntlet_ruleset(),
        fast_config=FastPathConfig(state_backend="sketch"),
    )
    config = RunnerConfig(batch_size=256)
    serial = SerialRunner(spec, shards=4, config=config).run(trace)
    parallel = ParallelRunner(spec, workers=4, config=config).run(trace)
    return {
        "workers": 4,
        "packets": serial.packets,
        "serial_digest": serial.digest(),
        "parallel_digest": parallel.digest(),
        "alerts": len(serial.alerts),
        "serial_sketch_total": serial.sketch.total() if serial.sketch else 0,
        "parallel_sketch_total": parallel.sketch.total() if parallel.sketch else 0,
        "sketches_equal": bool(
            serial.sketch is not None and serial.sketch == parallel.sketch
        ),
    }


def run_state_scale() -> dict:
    rows = [run_scale_point("sketch", n) for n in SKETCH_SCALE_POINTS]
    rows += [run_scale_point("dict", n) for n in DICT_SCALE_POINTS]

    dict_rows = [r for r in rows if r["backend"] == "dict"]
    sketch_rows = [r for r in rows if r["backend"] == "sketch"]
    largest_dict = dict_rows[-1]
    dict_bytes_per_flow = largest_dict["peak_state_bytes"] / largest_dict["flows"]
    dict_projected_1m = int(dict_bytes_per_flow * 1_000_000)
    sketch_1m = sketch_rows[-1]["peak_state_bytes"]
    conventional_1m = provisioned_conventional_state(1_000_000)
    return {
        "scale": rows,
        "oracle": run_divert_oracle(),
        "runtime": run_digest_equality(),
        "comparison_1m": {
            "sketch_peak_bytes": sketch_1m,
            "dict_projected_bytes": dict_projected_1m,
            "conventional_bytes": conventional_1m,
            "sketch_vs_conventional_ratio": round(sketch_1m / conventional_1m, 6),
            "max_conventional_fraction": MAX_CONVENTIONAL_FRACTION,
        },
    }


def check_and_emit(result: dict, capfd=None) -> None:
    (REPO_ROOT / "BENCH_state.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    lines = [
        f"{'backend':>8}  {'flows':>9}  {'peak state B':>12}  {'tracked':>9}  "
        f"{'recycles':>9}  {'pps':>10}",
    ]
    for row in result["scale"]:
        lines.append(
            f"{row['backend']:>8}  {row['flows']:>9,}  {row['peak_state_bytes']:>12,}  "
            f"{row['tracked_flows']:>9,}  {row['slot_recycles']:>9,}  {row['pps']:>10,.0f}"
        )
    oracle = result["oracle"]
    lines.append(
        f"oracle: {oracle['packets']:,} packets / {oracle['flows']:,} flows -- "
        f"exact diverts {oracle['diverts_exact']:,}, sketch {oracle['diverts_sketch']:,}, "
        f"false {oracle['false_diverts']} ({oracle['false_divert_rate']:.4%}, "
        f"budget {oracle['budget_rate']:.0%}), missed {oracle['missed_diverts']}"
    )
    comparison = result["comparison_1m"]
    lines.append(
        f"1M flows: sketch {comparison['sketch_peak_bytes']:,} B vs dict "
        f"{comparison['dict_projected_bytes']:,} B vs conventional "
        f"{comparison['conventional_bytes']:,} B "
        f"({comparison['sketch_vs_conventional_ratio']:.4%} of conventional)"
    )
    runtime = result["runtime"]
    lines.append(
        f"runtime: serial(4) == parallel(4) digest: "
        f"{runtime['serial_digest'] == runtime['parallel_digest']}, "
        f"merged sketch totals {runtime['serial_sketch_total']:,} / "
        f"{runtime['parallel_sketch_total']:,}"
    )
    emit("state_scale", lines, capfd)

    # Bounded state: the sketch provisioning is a constant, independent
    # of offered flow count; the dict grows with every flow.
    sketch_peaks = {
        r["peak_state_bytes"] for r in result["scale"] if r["backend"] == "sketch"
    }
    assert len(sketch_peaks) == 1, f"sketch state not flat across scale: {sketch_peaks}"
    dict_rows = [r for r in result["scale"] if r["backend"] == "dict"]
    assert dict_rows[-1]["peak_state_bytes"] > dict_rows[0]["peak_state_bytes"], (
        "dict state did not grow with flow count -- sweep is broken"
    )
    assert comparison["sketch_peak_bytes"] < comparison["dict_projected_bytes"], (
        "sketch provisioning does not undercut the exact dict at 1M flows"
    )
    assert (
        comparison["sketch_peak_bytes"]
        < MAX_CONVENTIONAL_FRACTION * comparison["conventional_bytes"]
    ), "sketch provisioning exceeds the conventional-state budget"

    assert oracle["diverts_exact"] > 0, "oracle trace produced no diverts"
    assert oracle["false_divert_rate"] <= FALSE_DIVERT_BUDGET, (
        f"false-divert rate {oracle['false_divert_rate']:.4%} over budget "
        f"{FALSE_DIVERT_BUDGET:.0%}"
    )

    assert runtime["serial_digest"] == runtime["parallel_digest"], (
        "sketch backend broke serial/parallel equivalence at 4 workers"
    )
    assert runtime["sketches_equal"], "merged shard sketches diverged serial vs parallel"
    assert runtime["serial_sketch_total"] == runtime["parallel_sketch_total"]
    assert runtime["alerts"] > 0, "gauntlet produced no alerts under sketch backend"


def test_state_scale(capfd):
    """Bounded sketch state + divert fidelity + 4-worker digest equality.

    Emits BENCH_state.json."""
    check_and_emit(run_state_scale(), capfd)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    check_and_emit(run_state_scale())
    print("state scale gate passed", file=sys.stderr)
