"""``run.py --compare A.json B.json``: one row per workload and metric.

``A`` is the parent's result file and ``B`` the change's, both written by
``run.py --out``.  A metric *regressed* when B's median is worse than A's by
more than the bound ``BENCHMARK.json`` fixes for it.  When the run-to-run
spread of either side is wider than that bound the row reads ``unresolved``
instead of ``ok`` — unless every run of B is better than every run of A.
"""

from __future__ import annotations

import json
import statistics

__all__ = ["compare"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def _row(a: list[float], b: list[float], better: str, bound: float) -> dict:
    a_low, a_median, a_high = _quartiles(a)
    b_low, b_median, b_high = _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B is worse, as a share of A's median.
    worse_by = sign * (b_median - a_median) / abs(a_median)
    spread = max((a_high - a_low) / abs(a_median), (b_high - b_low) / abs(b_median))
    if better == "lower":
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    if worse_by > bound:
        verdict = "REGRESSION"
    elif spread > bound and not b_always_better:
        verdict = "unresolved"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "ok"
    return {
        "a": (a_low, a_median, a_high),
        "b": (b_low, b_median, b_high),
        "worse_by": worse_by,
        "spread": spread,
        "verdict": verdict,
    }


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print the table; return 1 if any metric regressed."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    for key in ("seed", "seconds"):
        if a[key] != b[key]:
            print(f"warning: {key} differs: {a[key]} vs {b[key]}")
    print(
        f"{'workload':<17} {'metric':<20} {'unit':<6} "
        f"{'A q1/median/q3':>36} {'B q1/median/q3':>36} "
        f"{'B worse by':>10} {'bound':>6} {'spread':>7}  verdict"
    )
    regressed = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        runs_a, runs_b = a["workloads"][name], b["workloads"][name]
        if runs_a["sim_digest"] != runs_b["sim_digest"]:
            print(f"{name:<17} sim_digest differs: simulated behaviour changed")
        for metric in spec["end_to_end"]:
            row = _row(
                runs_a["end_to_end"][metric["name"]]["values"],
                runs_b["end_to_end"][metric["name"]]["values"],
                metric["better"],
                metric["bound"],
            )
            regressed |= row["verdict"] == "REGRESSION"
            print(
                f"{name:<17} {metric['name']:<20} {metric['unit']:<6} "
                f"{'/'.join(f'{v:.4g}' for v in row['a']):>36} "
                f"{'/'.join(f'{v:.4g}' for v in row['b']):>36} "
                f"{row['worse_by']:>+10.1%} {metric['bound']:>6.0%} "
                f"{row['spread']:>7.1%}  {row['verdict']}"
            )
    return 1 if regressed else 0
