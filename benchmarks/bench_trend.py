"""Bench trend gate -- fresh ``BENCH_*.json`` vs the committed copies.

CI regenerates the benchmark JSON files and this script diffs every
numeric leaf against the copy committed at a git ref (``HEAD`` by
default, i.e. the checkout under test).  Two classes of metric:

- **gated**: machine-independent numerics -- packet/alert/state counts,
  table sizes, byte splits, ratios of counted things.  A drift beyond
  the tolerance (default +/-20%) fails the run: it means the *workload
  or algorithm* changed without the committed baseline being updated.
- **info-only**: anything timing-derived (wall seconds, throughput,
  speedups, overhead ratios).  CI machines differ; these are reported
  in the delta table but never gate.

A metric is classified by key name: leaves matching
:data:`TIMING_PATTERN` anywhere in their dotted path are info-only,
unless they also match :data:`COUNTED_PATTERN` (a deterministic ratio
whose name reads like a timing one).
The delta table is written as Markdown to ``$GITHUB_STEP_SUMMARY``
when that variable is set (GitHub renders it as the job summary) and
always printed as text.  Files absent from the baseline ref (a brand
new benchmark) are reported as ``new`` and do not gate.

Runnable standalone from the repo root::

    PYTHONPATH=src python benchmarks/bench_trend.py
    PYTHONPATH=src python benchmarks/bench_trend.py --ref origin/main --tolerance 0.3
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Key names (matched anywhere in the dotted path, case-insensitive)
#: whose values depend on the machine the benchmark ran on.
TIMING_PATTERN = re.compile(
    r"(mbps|gbps|pps|seconds|wall|ns_per|_ns\b|_s\b|best_s|speedup"
    r"|overhead|ratio|rate|cpu_count|latency)",
    re.IGNORECASE,
)

#: Leaves gated although TIMING_PATTERN matches them: ratios of counted
#: things (the paper's state ratio is peak state bytes over the
#: conventional IPS's, both counted from the trace).
COUNTED_PATTERN = re.compile(r"state_bytes_ratio$", re.IGNORECASE)

DEFAULT_TOLERANCE = 0.20


def is_timing(path: str) -> bool:
    """True for an info-only (machine-dependent) leaf."""
    return bool(TIMING_PATTERN.search(path)) and not COUNTED_PATTERN.search(path)


def numeric_leaves(data, prefix: str = "") -> dict[str, float]:
    """Flatten *data* to ``{dotted.path: value}`` for numeric leaves."""
    out: dict[str, float] = {}
    if isinstance(data, bool):
        return out
    if isinstance(data, (int, float)):
        out[prefix] = float(data)
    elif isinstance(data, dict):
        for key in sorted(data):
            out.update(numeric_leaves(data[key], f"{prefix}.{key}" if prefix else key))
    elif isinstance(data, list):
        for i, item in enumerate(data):
            out.update(numeric_leaves(item, f"{prefix}[{i}]"))
    return out


def committed_copy(name: str, ref: str) -> dict | None:
    """The file's content at *ref*, or None if it does not exist there."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def compare_file(name: str, ref: str, tolerance: float) -> tuple[list[dict], bool]:
    """Rows for one BENCH file; second element is True when it gates clean."""
    fresh_path = REPO_ROOT / name
    fresh = numeric_leaves(json.loads(fresh_path.read_text(encoding="utf-8")))
    baseline_data = committed_copy(name, ref)
    if baseline_data is None:
        return (
            [{"file": name, "metric": "(new file)", "status": "new"}],
            True,
        )
    baseline = numeric_leaves(baseline_data)

    rows = []
    clean = True
    for path in sorted(set(fresh) | set(baseline)):
        timing = is_timing(path)
        old = baseline.get(path)
        new = fresh.get(path)
        if old is None or new is None:
            status = "added" if old is None else "removed"
            if not timing:
                clean = False
                status += " (GATE)"
            rows.append(
                {"file": name, "metric": path, "old": old, "new": new, "status": status}
            )
            continue
        if old == new:
            continue
        delta = (new - old) / abs(old) if old else float("inf")
        within = abs(delta) <= tolerance
        if timing:
            status = "info"
        elif within:
            status = "ok"
        else:
            status = "DRIFT"
            clean = False
        rows.append(
            {
                "file": name,
                "metric": path,
                "old": old,
                "new": new,
                "delta": delta,
                "status": status,
            }
        )
    return rows, clean


def render(rows: list[dict], tolerance: float) -> str:
    lines = [
        "| file | metric | committed | fresh | delta | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for row in rows:
        old = "" if row.get("old") is None else f"{row['old']:g}"
        new = "" if row.get("new") is None else f"{row['new']:g}"
        delta = "" if "delta" not in row else f"{row['delta']:+.1%}"
        lines.append(
            f"| {row['file']} | `{row['metric']}` | {old} | {new} "
            f"| {delta} | {row['status']} |"
        )
    if len(rows) == 0:
        lines.append("| *(all metrics identical)* | | | | | |")
    lines.append("")
    lines.append(
        f"Gate: machine-independent metrics within +/-{tolerance:.0%} of the "
        "committed baseline; timing metrics are info-only."
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ref",
        default="HEAD",
        help="git ref holding the baseline copies (default: HEAD)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed relative drift for gated metrics (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="BENCH_*.json names to compare (default: every BENCH_*.json present)",
    )
    args = parser.parse_args(argv)

    names = args.files or sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json"))
    if not names:
        print("bench-trend: no BENCH_*.json files found", file=sys.stderr)
        return 2

    all_rows: list[dict] = []
    all_clean = True
    for name in names:
        rows, clean = compare_file(name, args.ref, args.tolerance)
        all_rows.extend(rows)
        all_clean = all_clean and clean

    table = render(all_rows, args.tolerance)
    heading = "## Bench trend vs " + args.ref
    print(heading + "\n" + table)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as handle:
            handle.write(heading + "\n\n" + table + "\n")

    if not all_clean:
        print(
            "bench-trend: gated metric drifted beyond tolerance -- if the "
            "workload change is intentional, regenerate and commit the "
            "BENCH_*.json baselines",
            file=sys.stderr,
        )
        return 1
    print("bench-trend: gate clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
