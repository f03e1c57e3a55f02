"""Statistics for the end-to-end benchmark: window summaries, the
host-quiet probe, and the comparison of two result files.

Why quartiles and not medians: the 2-core host this benchmark was built
on drops into a slow state (about half speed) for seconds at a time, so
the windows of one run are bimodal and their median lands on either
mode.  The headline value of a rate is therefore the *upper* quartile
over windows and of a time the *lower* quartile -- the speed of the
quiet host -- with median, quartiles, best and sample count recorded
beside it so the spread stays visible.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Sequence

HIGHER = "higher"
LOWER = "lower"


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (the ``inclusive`` method of
    :func:`statistics.quantiles`), defined from one sample up."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: Sequence[float], better: str) -> Dict[str, float]:
    """The headline ``value`` (quartile on the good side) plus what a
    reader needs to judge it: median, both quartiles, best, count."""
    q1, median, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
    return {
        "value": q3 if better == HIGHER else q1,
        "median": median,
        "q1": q1,
        "q3": q3,
        "best": max(values) if better == HIGHER else min(values),
        "n": len(values),
    }


def spread(summary: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    return abs(summary["q3"] - summary["q1"]) / abs(summary["median"])


# ----------------------------------------------------------------------
# Host-quiet probe
# ----------------------------------------------------------------------
PROBE_ITERATIONS = 20_000


def host_probe() -> float:
    """Seconds for a fixed 20k-iteration NumPy loop.  Run before and
    after each window; a probe much slower than the run's best shows the
    window ran in the host's slow state."""
    import numpy as np

    row = np.arange(64, dtype=np.uint64)
    start = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        row += row
    return time.perf_counter() - start


def calib_ratio_min(probes: Sequence[float]) -> float:
    """Slowest probe relative to the run's best: 1.0 = the host never
    slowed, 0.5 = some window ran on a host at half speed."""
    return min(probes) / max(probes)


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------
def worsening(base: float, new: float, better: str) -> float:
    """By what share of ``base`` the value got worse (negative: better)."""
    change = (new - base) / abs(base)
    return -change if better == HIGHER else change


def compare(spec: dict, base: dict, new: dict) -> List[dict]:
    """One row per workload x end-to-end metric of ``spec``
    (``BENCHMARK.json``), comparing result file ``new`` against ``base``.

    ``regressed``: worse than the metric's bound.  ``unresolved``: the
    spread recorded in either file exceeds the bound, so the two values
    cannot be told apart -- never reported as unchanged.  ``failed``:
    the workload had failed operations.  ``missing``: skipped or absent
    on one side.
    """
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        sides = [doc["workloads"].get(workload, {}) for doc in (base, new)]
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            row = {"workload": workload, "metric": name, "bound": bound}
            rows.append(row)
            summaries = [side.get("end_to_end", {}).get(name) for side in sides]
            if None in summaries:
                row["verdict"] = "missing"
                continue
            row["base"] = summaries[0]["value"]
            row["new"] = summaries[1]["value"]
            row["worse_by"] = worsening(row["base"], row["new"], better)
            row["spread"] = max(spread(s) for s in summaries)
            if any(side.get("failed", 0) for side in sides):
                row["verdict"] = "failed"
            elif row["spread"] > bound:
                row["verdict"] = "unresolved"
            elif row["worse_by"] > bound:
                row["verdict"] = "regressed"
            else:
                row["verdict"] = "ok"
    return rows


def check(spec_path, base_path, new_path) -> int:
    """Print the comparison table; exit status 1 on any regression,
    failure or missing workload (``unresolved`` is reported, not failed:
    it says the benchmark could not tell, not that the code got worse)."""
    documents = []
    for path in (spec_path, base_path, new_path):
        with open(path) as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    for row in rows:
        detail = ""
        if "base" in row:
            detail = (f"{row['base']:.6g} -> {row['new']:.6g}  "
                      f"worse by {row['worse_by']:+.1%} (bound {row['bound']:.0%}, "
                      f"spread {row['spread']:.1%})")
        print(f"{row['verdict']:<10} {row['workload']:<26} {row['metric']:<16} {detail}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "failed", "missing")]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(rows)} comparisons: {len(bad)} bad, {unresolved} unresolved")
    return 1 if bad else 0
