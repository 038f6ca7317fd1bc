"""Compare two sets of recorded runs, metric by metric.

    python3 perfbench/run.py compare BASE.jsonl HEAD.jsonl

Each file holds one JSON line per run, as ``run.py --record FILE`` appends
them.  Runs pair up by workload, trace mode and seed (in seed order when the
two files share no seeds).  For every metric the
two sets share, the table gives each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the head's change, how many pairs
it won, and a verdict:

* ``improved`` -- the head wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the base's own
  spread, the distance between its quartiles;
* ``no worse`` -- the head's median is not worse than the base's by more
  than the metric's bound from ``BENCHMARK.json``, and the base's spread is
  within that bound;
* ``worse`` -- worse than that bound, with the spread within it;
* ``unresolved`` -- the base's spread is wider than the bound (or the metric
  has no bound), and the head neither won as above nor read better than the
  base on every run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> Dict[Tuple[str, int], Dict[int, Dict[str, float]]]:
    """``{(workload, trace): {seed: {metric: value}}}`` from a record file."""
    runs: Dict[Tuple[str, int], Dict[int, Dict[str, float]]] = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                entry = json.loads(line)
                metrics = entry["result"]["metrics"]
                runs[(entry["workload"], entry.get("trace", 0))][entry["seed"]] = {
                    name: metric["value"] for name, metric in metrics.items()}
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: Optional[float]) -> Tuple[str, int]:
    """The verdict for seed-paired ``base``/``head`` values, and pairs won."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b1, b_median, b3 = quartiles(base)
    _, h_median, _ = quartiles(head)
    gain = sign * (h_median - b_median)
    if wins >= 0.9 * min(len(base), len(head)) and gain > (b3 - b1):
        return "improved", wins
    spread = (b3 - b1) / abs(b_median) if b_median else float("inf")
    if bound is None or spread > bound:
        every = all(sign * (h - b) > 0 for h in head for b in base)
        return ("no worse" if every else "unresolved"), wins
    worse_by = -gain / abs(b_median) if b_median else float("inf")
    return ("no worse" if worse_by <= bound else "worse"), wins


def compare(base_path: str, head_path: str, out=sys.stdout) -> int:
    """Print the comparison table; returns 1 if any verdict is ``worse``."""
    spec = json.loads(BENCHMARK.read_text()) if BENCHMARK.is_file() else {}
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    base, head = load(base_path), load(head_path)
    worse = 0
    print("%-16s %-26s %-28s %-28s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "head median [q1, q3]",
        "change", "wins", "verdict"), file=out)
    for key in sorted(set(base) & set(head)):
        # Pair runs by seed; sets drawn with different seeds pair in order.
        shared = sorted(set(base[key]) & set(head[key]))
        base_runs = [base[key][s] for s in (shared or sorted(base[key]))]
        head_runs = [head[key][s] for s in (shared or sorted(head[key]))]
        pairs = min(len(base_runs), len(head_runs))
        names = [n for n in base_runs[0] if n in head_runs[0]]
        for name in names:
            b = [run[name] for run in base_runs]
            h = [run[name] for run in head_runs]
            better, bound = rules.get(name, ("lower", None))
            result, wins = verdict(b, h, better, bound)
            worse += result == "worse"
            b1, bm, b3 = quartiles(b)
            h1, hm, h3 = quartiles(h)
            change = (hm - bm) / abs(bm) if bm else 0.0
            print("%-16s %-26s %-28s %-28s %+7.1f%% %3d/%-2d  %s" % (
                key[0] + ("" if not key[1] else " (trace)"), name,
                "%.4g [%.4g, %.4g]" % (bm, b1, b3),
                "%.4g [%.4g, %.4g]" % (hm, h1, h3),
                100.0 * change, wins, pairs, result), file=out)
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(argv[0], argv[1])
