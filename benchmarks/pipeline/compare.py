"""Compare two sets of ledger runs: ``compare.py A.jsonl B.jsonl``.

Each input is a file ``run.py --out`` appended to (one JSON line per
run; only untraced runs carry end-to-end metrics and only those are
read).  For every workload x end-to-end metric this prints both sides'
median and quartiles, the ratio B/A with its base, and a verdict against
the bound fixed in ``BENCHMARK.json``:

- ``unresolved`` -- a side's interquartile range exceeds the bound, so
  the runs cannot tell a regression of that size from noise;
- ``regressed``  -- B's median is worse than A's by more than the bound;
- ``within``     -- neither.

The same tool serves the A/A check (two sets from one commit must come
out ``within`` everywhere) and later parent-vs-change pairs.  Exit code
1 when any row regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced runs in ``path``."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, entry in record["metrics"].items():
                values[record["workload"]][name].append(entry["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = quantiles(values, n=4)
    return first, median(values), third


def compare(
    a: dict[str, dict[str, list[float]]],
    b: dict[str, dict[str, list[float]]],
    metrics: list[dict],
) -> list[dict]:
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a_q1, a_med, a_q3 = summary(a[workload][name])
            b_q1, b_med, b_q3 = summary(b[workload][name])
            spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
            worse_by = (
                (a_med - b_med) / a_med if metric["better"] == "higher" else (b_med - a_med) / a_med
            )
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "regressed"
            else:
                verdict = "within"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": (a_q1, a_med, a_q3, len(a[workload][name])),
                    "b": (b_q1, b_med, b_q3, len(b[workload][name])),
                    "ratio": b_med / a_med,
                    "spread": spread,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    rows = compare(load(argv[1]), load(argv[2]), metrics)
    print(
        f"{'workload':<13} {'metric':<13} {'A q1 / median / q3 (n)':<40} "
        f"{'B q1 / median / q3 (n)':<40} {'B/A (base A)':>13} {'spread':>7} {'bound':>6}  verdict"
    )
    for row in rows:
        sides = [
            f"{q1:.5g} / {med:.5g} / {q3:.5g} ({n})" for q1, med, q3, n in (row["a"], row["b"])
        ]
        print(
            f"{row['workload']:<13} {row['metric']:<13} {sides[0]:<40} {sides[1]:<40} "
            f"{row['ratio']:>13.4f} {row['spread']:>7.2%} {row['bound']:>6.0%}  {row['verdict']}"
        )
    counts = {
        verdict: sum(row["verdict"] == verdict for row in rows)
        for verdict in ("within", "unresolved", "regressed")
    }
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
