"""Compare two result sets written by ``run.py --sets``.

    python benchmarks/suite/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the ratio B/A
with its base, each side's own spread (interquartile distance over its
median), the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's own runs spread wider than the bound, so
  the comparison cannot tell "unchanged" from "changed";
* ``ok``         — neither.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (what the driver computes over ten seeds)."""
    if len(values) < 2:
        return 0.0
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse *other* is than *base*, as a share of *base*
    (negative when it is better)."""
    change = (other - base) / base
    return change if better == "lower" else -change


def compare(first: dict, second: dict, spec: dict) -> List[Dict[str, object]]:
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = first["values"][workload][name]
            b = second["values"][workload][name]
            base, other = statistics.median(a), statistics.median(b)
            loss = worse_by(base, other, metric["better"])
            own = max(spread(a), spread(b))
            verdict = "ok"
            if loss > metric["bound"]:
                verdict = "regressed"
            elif own > metric["bound"]:
                verdict = "unresolved"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a_median": base, "b_median": other, "ratio_b_over_a":
                other / base, "spread_a": spread(a), "spread_b": spread(b),
                "bound": metric["bound"], "runs": (len(a), len(b)),
                "verdict": verdict,
            })
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    header = ("workload", "metric", "A median", "B median",
              "B/A (base A)", "spread A", "spread B", "bound", "verdict")
    table: List[Tuple[str, ...]] = [header]
    for row in rows:
        table.append((
            row["workload"], f"{row['metric']} [{row['unit']}]",
            f"{row['a_median']:.6g}", f"{row['b_median']:.6g}",
            f"{row['ratio_b_over_a']:.4f} of {row['a_median']:.6g}",
            f"{row['spread_a']:.2%}", f"{row['spread_b']:.2%}",
            f"{row['bound']:.0%}", row["verdict"]))
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(width)
                               for cell, width in zip(line, widths)).rstrip()
                     for line in table)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(first, second, json.loads(BENCHMARK_JSON.read_text()))
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
