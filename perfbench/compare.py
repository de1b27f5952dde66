"""Compare two sets of perfbench results, metric by metric.

A results file (written by ``python -m perfbench run --out``) holds one
entry per subprocess run; ``run --repeat K`` gives K untraced runs per
workload.  For every workload and end-to-end metric this module takes
each side's median and quartiles over its untraced runs and gives a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``failing`` when the new side failed more operations than the base
  side (a run that printed no result counts as one failed operation);
  no gain counts then;
* ``unresolved`` when either side has fewer than ``MIN_RUNS`` runs, or
  when either side's spread (quartile distance over median) exceeds the
  bound, unless every new run beats every base run;
* ``improved`` / ``regressed`` when the medians differ by more than the
  bound in the metric's better / worse direction;
* ``unchanged`` otherwise.

With a directory of paired runs (``base-*.json`` and ``new-*.json``, run
alternately), it also counts how many pairs the new side wins, and flags
a gain only with at least ten pairs, at least nine tenths of them won, a
median gap larger than the base side's quartile distance, and no more
failed operations than the base side.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

#: Untraced runs each side needs before a verdict other than unresolved.
MIN_RUNS = 5


@dataclass
class Runs:
    """One workload's untraced runs from one results file."""

    values: Dict[str, List[float]] = field(default_factory=dict)
    failed: int = 0


def load_runs(path: Path) -> Dict[str, Runs]:
    """:func:`untraced_runs` of a results file."""
    return untraced_runs(json.loads(Path(path).read_text()))


def untraced_runs(payload: Dict[str, Any]) -> Dict[str, Runs]:
    """Untraced runs per workload: metric values of every run that printed
    a result, and failed operations of all of them."""
    out: Dict[str, Runs] = {}
    for run in payload["runs"]:
        if run["trace"] != 0:
            continue
        runs = out.setdefault(run["workload"], Runs())
        result = run["result"]
        if result is None:
            runs.failed += 1
            continue
        runs.failed += result["failed"]
        for name, metric in result["metrics"].items():
            runs.values.setdefault(name, []).append(metric["value"])
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    if len(base) < MIN_RUNS or len(new) < MIN_RUNS:
        return "unresolved"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    beats_all = all(_better(n, b, better) for n in new for b in base)
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    if spread > bound and not beats_all:
        return "unresolved"
    gain = (nm - bm) / bm if better == "higher" else (bm - nm) / bm
    if gain > bound or (spread > bound and beats_all):
        return "improved"
    if gain < -bound:
        return "regressed"
    return "unchanged"


def compare(
    base: Path, new: Path, spec: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """Rows of the comparison table and whether any metric regressed or
    the new side failed more operations."""
    base_runs, new_runs = load_runs(base), load_runs(new)
    rows = ["%-18s %-12s %34s %34s  %s" % (
        "workload", "metric", "base median [q1, q3] (n)", "new median [q1, q3] (n)",
        "verdict",
    )]
    worse = False
    for workload in sorted(set(base_runs) & set(new_runs)):
        b_runs, n_runs = base_runs[workload], new_runs[workload]
        failing = n_runs.failed > b_runs.failed
        if failing:
            rows.append("%-18s failed operations: base %d, new %d" % (
                workload, b_runs.failed, n_runs.failed,
            ))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = b_runs.values.get(name)
            n = n_runs.values.get(name)
            if not b or not n:
                continue
            result = "failing" if failing else verdict(
                b, n, metric["better"], metric["bound"]
            )
            worse |= result in ("regressed", "failing")
            rows.append("%-18s %-12s %34s %34s  %s" % (
                workload, name, fmt_quartiles(b), fmt_quartiles(n), result,
            ))
    return rows, worse


def fmt_quartiles(values: Sequence[float]) -> str:
    """``median [q1, q3] (n)``."""
    q1, med, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g] (%d)" % (med, q1, q3, len(values))


def compare_pairs(pairs_dir: Path, spec: Dict[str, Any]) -> List[str]:
    """Win fraction per workload and metric over alternating run pairs.

    A pair in which either side printed no value is not a win.
    """
    bases = sorted(Path(pairs_dir).glob("base-*.json"))
    news = sorted(Path(pairs_dir).glob("new-*.json"))
    if len(bases) != len(news):
        raise ValueError(
            "%s holds %d base and %d new files; pairs must match"
            % (pairs_dir, len(bases), len(news))
        )
    pairs = [(load_runs(b), load_runs(n)) for b, n in zip(bases, news)]
    rows = ["%-18s %-12s %7s  %s" % ("workload", "metric", "wins", "gain")]
    if not pairs:
        return rows
    for workload in sorted(set.intersection(*(set(b) & set(n) for b, n in pairs))):
        sides = [(b[workload], n[workload]) for b, n in pairs]
        failing = sum(n.failed for _, n in sides) > sum(b.failed for b, _ in sides)
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            values = [
                (b.values.get(name, [None])[0], n.values.get(name, [None])[0])
                for b, n in sides
            ]
            wins = sum(
                b is not None and n is not None and _better(n, b, better)
                for b, n in values
            )
            base_vals = [b for b, _ in values if b is not None]
            new_vals = [n for _, n in values if n is not None]
            gain = False
            if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and not failing:
                q1, bm, q3 = quartiles(base_vals)
                gain = abs(statistics.median(new_vals) - bm) > q3 - q1
            rows.append("%-18s %-12s %3d/%-3d  %s" % (
                workload, name, wins, len(pairs), "yes" if gain else "no",
            ))
    return rows


__all__ = [
    "MIN_RUNS",
    "Runs",
    "compare",
    "compare_pairs",
    "fmt_quartiles",
    "load_runs",
    "quartiles",
    "untraced_runs",
    "verdict",
]
