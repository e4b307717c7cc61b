"""Compare two result sets, parent and change, metric by metric.

A result set is a directory of the JSON results that ``run.py`` writes.
Runs are paired by workload, trace mode and seed.  Each row gives both
sides' medians and quartiles, the fraction of pairs the change wins
(ties count for neither side) and a verdict:

* ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
* ``unresolved``: either side's interquartile range, as a share of its
  median, exceeds the bound, unless every change run beats every parent
  run;
* ``same``: none of these.  Metrics without a bound get no verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> metric name -> value."""
    table: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        with open(path) as fh:
            result = json.load(fh)
        values = {name: m["value"] for name, m in result["metrics"].items()
                  if m["value"] is not None}
        table.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = values
    return table


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better, bound, wins) -> str:
    (pq1, pmed, pq3), (cq1, cmed, cq3) = summary(parent), summary(change)
    sign = 1 if better == "higher" else -1
    gain = sign * (cmed - pmed)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if bound is None:
        return "-"
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0, (cq3 - cq1) / abs(cmed) if cmed else 0)
    if spread > bound and not all_better:
        return "unresolved"
    if wins >= 0.9 and gain > pq3 - pq1:
        return "better"
    if -gain > bound * abs(pmed):
        return "worse"
    return "same"


def rows(parent_dir: Path, change_dir: Path) -> list[list[str]]:
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_results(parent_dir), load_results(change_dir)
    out = []
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        names = sorted({n for s in seeds for n in parent[key][s]}
                       & {n for s in seeds for n in change[key][s]})
        for name in names:
            pairs = [(parent[key][s][name], change[key][s][name]) for s in seeds
                     if name in parent[key][s] and name in change[key][s]]
            meta = declared.get(name, {})
            better = meta.get("better", "lower")
            sign = 1 if better == "higher" else -1
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
            p_vals, c_vals = [p for p, _ in pairs], [c for _, c in pairs]
            out.append([key[0], name, "%d" % len(pairs)]
                       + ["%.4g" % v for v in summary(p_vals) + summary(c_vals)]
                       + ["%.2f" % wins, verdict(p_vals, c_vals, better, meta.get("bound"), wins)])
    return out


def main(parent_dir: Path, change_dir: Path) -> int:
    header = ["workload", "metric", "pairs", "parent_q1", "parent_med", "parent_q3",
              "change_q1", "change_med", "change_q3", "wins", "verdict"]
    table = [header] + rows(parent_dir, change_dir)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    return 0
