"""Pipeline ledger: pcap -> alerts throughput, memory, set-up and per-layer time.

    python3 benchmarks/pipeline/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--quick] [--no-cache] [--out FILE]

For each workload this builds (or finds cached) the seeded pcap, then
runs ``driver.py`` in a fresh child interpreter and prints every metric
by name with its unit, the output checks, and -- as the last line of
each run -- one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` is the untraced run (end-to-end metrics),
``--trace 1`` the traced run (per-layer metrics); without ``--trace``
both are made.  The metric names, units and regression bounds live in
``BENCHMARK.json`` at the repository root and nowhere else.

``--out FILE`` appends one JSON line per run (metrics plus trace facts,
host facts and check results) -- the input of ``compare.py`` -- and, for
traced runs, writes the raw spans to ``FILE.<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: What the traced run must show for a workload to still be stressing
#: the layers it was chosen for (printed, never enforced: a later change
#: that moves a share across its line is the signal, not an error).
VALIDITY = {
    "benign_bulk": [("match.share", ">=", 0.5)],
    "small_pkt": [("match.share", "<=", 0.05), ("core.engine.diverted_pkt_share", "<=", 0.02)],
    "evasion_mix": [
        ("core.slowpath.share", ">=", 0.4),
        ("core.engine.materialized_row_share", ">=", 0.8),
    ],
    "serve_replay": [("service.tax_ratio", ">=", 1.5)],
}


def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def host_facts() -> dict[str, Any]:
    from repro.pcap import numpy_available

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy_available(),
        "platform": platform.platform(),
    }


def run_child(job: dict[str, Any]) -> dict[str, Any]:
    """One ``driver.py`` invocation; returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    done = subprocess.run(
        [sys.executable, str(HERE / "driver.py")],
        input=json.dumps(job),
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=170,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    cache: bool = True,
    out: str | None = None,
) -> dict[str, Any]:
    """Build the input, measure in a child, attach units; returns the record."""
    import traces
    from driver import WORKLOADS

    benchmark = load_benchmark()
    spec = traces.SPECS[WORKLOADS[name].trace]
    built = traces.build(spec.scaled(20) if quick else spec, seed, cache=cache)
    job = {
        "workload": name,
        "pcap": str(built.path),
        "prefix_pcap": str(built.prefix_path),
        "facts": built.facts,
        "manifest": built.manifest,
        "seconds": seconds,
        "trace": trace,
        "spans_out": f"{out}.{name}.spans.json" if out and trace else None,
    }
    result = run_child(job)
    declared = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {
        metric["name"]: {"value": result["metrics"][metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "checks": result["checks"],
        "undetected": result["undetected"],
        "run_facts": result["facts"],
        "trace_facts": built.facts,
        "host": host_facts(),
    }


def report(record: dict[str, Any]) -> None:
    """Print one run: facts, every metric with its unit, checks, JSON line."""
    name = record["workload"]
    facts = record["trace_facts"]
    print(
        f"== {name} seed={record['seed']} trace={record['trace']} "
        f"packets={facts['packets']} capture_bytes={facts['capture_bytes']} "
        f"payload_bytes={facts['payload_bytes']} flows={facts['flows']} "
        f"sha256={facts['sha256'][:16]} gen_s={facts['gen_s']:.2f}"
    )
    print(f"   host: {json.dumps(record['host'])}")
    print(f"   run:  {json.dumps(record['run_facts'])}")
    for metric, entry in record["metrics"].items():
        print(f"{name:<13} {metric:<40} {entry['value']:>16.6f} {entry['unit']}")
    share = record["failed"] / record["attempted"]
    print(
        f"{name:<13} {'fail_share':<40} {share:>16.6f} ratio "
        f"({record['failed']} failed / {record['attempted']} attempted)"
    )
    for check, passed in record["checks"].items():
        print(f"   check {check}: {'ok' if passed else 'FAILED'}")
    if record["undetected"]:
        print(f"   undetected manifest flows: {record['undetected']}")
    if record["trace"]:
        for metric, relation, limit in VALIDITY[name]:
            value = record["metrics"][metric]["value"]
            holds = value >= limit if relation == ">=" else value <= limit
            print(
                f"   validity {metric} = {value:.4f} {relation} {limit}: "
                f"{'holds' if holds else 'DOES NOT HOLD'}"
            )
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true", help="1/20-size traces (tests)")
    parser.add_argument("--no-cache", action="store_true", help="rebuild the traces")
    parser.add_argument("--out", help="append one JSON line per run to this file")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no product to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    correct = True
    for name in args.workload or names:
        for trace in (False, True) if args.trace is None else (bool(args.trace),):
            record = run_workload(
                name,
                seed=args.seed,
                seconds=args.seconds,
                trace=trace,
                quick=args.quick,
                cache=not args.no_cache,
                out=args.out,
            )
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            report(record)
            correct = correct and record["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
