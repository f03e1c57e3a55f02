#!/usr/bin/env python3
"""CI perf-regression gate: fresh bench JSON vs the checked-in baseline.

Loose by design -- benches run on whatever host CI hands us, so the gate
only fails when a row's lane-cycles/sec drops more than ``--factor``
(default 5x) below the recorded baseline: it catches order-of-magnitude
regressions (an accidentally de-vectorised kernel, a quadratic sync
loop), not scheduling noise.

    python benchmarks/perf_gate.py --baseline BENCH_batch.json \
        --current /tmp/batch_tiny.json --factor 5

Rows are matched on their identity fields (mode / design / kernel /
lanes / partitions / executor / strategy / sessions -- whichever are
present); rows only
one side has are ignored, so a ``--tiny`` sweep gates against the full
recorded grid.  Matched rows that record a ``replication_overhead`` are
additionally gated *tightly* (the partitioner is deterministic): rising
more than ``--replication-slack`` above the baseline fails.
A NumPy-availability mismatch between baseline and current skips the
gate (the engines measured are not comparable), as does a missing
baseline file, so new benches can land before their first baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

#: Fields identifying a row (used when present, in this order).  The
#: backend is part of the identity: a ``u64xN`` fast-path row and an
#: ``object`` comparison row of the same design/kernel/B are different
#: measurements and must never gate against each other.  Likewise the
#: partitioner ``strategy``: greedy and refined rows of the same grid
#: point have deliberately different replication overheads.
KEY_FIELDS = (
    "mode", "design", "kernel", "lanes", "backend", "partitions",
    "executor", "strategy", "transport", "engine", "sessions", "period",
)
#: The gated metric, by preference: sharded rows record ``lane_cps``,
#: batched rows ``batch_lane_cps``, serve startup rows ``warm_speedup``
#: (cache effectiveness -- a ratio, but gated the same way: falling more
#: than ``factor``x below the recorded baseline fails), activity-sweep
#: rows ``sparse_speedup`` (dense-vs-sparse on one host, also a ratio).
METRIC_FIELDS = ("lane_cps", "batch_lane_cps", "warm_speedup",
                 "sparse_speedup")

#: Floor rule for the activity sweep: at input activity at or below this
#: factor, *and* where the stimulus actually makes the design quiescent
#: (measured op skip rate above ``SPARSE_FLOOR_MIN_SKIP``), the sparse
#: engine's best speedup must exceed 1 -- skipping work may never cost
#: more than doing it.  Designs whose internal state free-runs under
#: held inputs (a fetching CPU core) never reach the skip threshold and
#: are exempt with a notice: there is no sparsity there to exploit.
SPARSE_FLOOR_ACTIVITY = 0.10
SPARSE_FLOOR_MIN_SKIP = 0.5

#: Floor rule for the shared-memory lane planes: at or above this many
#: partitions, a sharded row recording ``shm_speedup`` (shm vs the
#: JSON-pipe process executor, same host and sweep) must keep its
#: per-design best at or above 1x -- zero-copy index writes may never
#: lose to the pipe exchange they replace.  Both arms of a pair are
#: kernel-dominated on small cuts, so single points are noisy; the rule
#: takes the best over the measured grid, like the other floors.
SHM_FLOOR_MIN_PARTITIONS = 2

#: Floor rule for the compiled C batch backend: at or above this many
#: lanes, a row recording ``compiled_speedup`` (compiled vs the SU NumPy
#: codegen kernel, same host and process) must stay at or above 1x --
#: the compiled pass may never lose to the kernel it replaces.  Rows
#: below the lane threshold are informational (tiny batches measure
#: dispatch overhead, not the pass).
COMPILED_FLOOR_MIN_LANES = 8


def row_key(row: Dict[str, object]) -> Tuple:
    return tuple((field, row[field]) for field in KEY_FIELDS if field in row)


def row_metric(row: Dict[str, object]):
    """The first present, non-null, non-zero metric of a row.

    ``None`` and ``0`` both mean "nothing comparable was measured" (a
    skipped arm, a failed timer): comparing against a missing value or
    dividing by a zero baseline would crash or divide by zero, so such
    rows are skipped with a notice in :func:`gate` instead.
    """
    for field in METRIC_FIELDS:
        value = row.get(field)
        if value is None:
            continue
        value = float(value)
        if value != 0.0:
            return field, value
    return None, None


def sparse_floor(current: dict, floor: float = 1.0) -> Tuple[int, list]:
    """The activity-sweep floor: (checks run, failure labels).

    Per design, among current rows with ``activity_factor`` at or below
    :data:`SPARSE_FLOOR_ACTIVITY` whose measured ``op_skip_rate``
    clears :data:`SPARSE_FLOOR_MIN_SKIP`, the best ``sparse_speedup``
    must be at least ``floor``.  Absolute, not baseline-relative: the
    dense and sparse arms run on the same host in the same process, so
    their ratio is host-independent in a way lane-cycles/sec is not.
    """
    eligible: Dict[str, float] = {}
    for row in current.get("rows", []):
        speedup = row.get("sparse_speedup")
        activity = row.get("activity_factor")
        skip = row.get("op_skip_rate")
        if speedup is None or activity is None:
            continue
        if float(activity) > SPARSE_FLOOR_ACTIVITY:
            continue
        design = str(row.get("design"))
        if skip is None or float(skip) < SPARSE_FLOOR_MIN_SKIP:
            print(
                f"  [exempt] design={design}, activity={float(activity):.3f}: "
                f"op_skip_rate {float(skip or 0):.2f} below "
                f"{SPARSE_FLOOR_MIN_SKIP} -- design never went quiescent"
            )
            continue
        best = eligible.get(design, 0.0)
        eligible[design] = max(best, float(speedup))
    failures = []
    for design, best in sorted(eligible.items()):
        status = "ok" if best >= floor else "FAIL"
        print(
            f"  [{status}] design={design}: best sparse_speedup at "
            f"activity<={SPARSE_FLOOR_ACTIVITY:.0%} is {best:.2f}x "
            f"(floor {floor:.2f}x)"
        )
        if best < floor:
            failures.append(f"design={design} (sparse_speedup floor)")
    return len(eligible), failures


def compiled_floor(current: dict, floor: float = 1.0) -> Tuple[int, list]:
    """The compiled-backend floor: (checks run, failure labels).

    Per design, among current rows with a ``compiled_speedup`` at
    :data:`COMPILED_FLOOR_MIN_LANES` lanes or more, the best ratio must
    be at least ``floor``.  Absolute, not baseline-relative: the
    compiled and SU arms ran on the same host in the same process, so
    their ratio is host-independent in a way lane-cycles/sec is not.
    Hosts without a toolchain record no ``compiled_speedup`` rows and
    run zero checks here.
    """
    eligible: Dict[str, float] = {}
    for row in current.get("rows", []):
        speedup = row.get("compiled_speedup")
        lanes = row.get("lanes")
        if speedup is None or lanes is None:
            continue
        if int(lanes) < COMPILED_FLOOR_MIN_LANES:
            continue
        design = str(row.get("design"))
        eligible[design] = max(eligible.get(design, 0.0), float(speedup))
    failures = []
    for design, best in sorted(eligible.items()):
        status = "ok" if best >= floor else "FAIL"
        print(
            f"  [{status}] design={design}: best compiled_speedup at "
            f"B>={COMPILED_FLOOR_MIN_LANES} is {best:.2f}x "
            f"(floor {floor:.2f}x)"
        )
        if best < floor:
            failures.append(f"design={design} (compiled_speedup floor)")
    return len(eligible), failures


def shm_floor(current: dict, floor: float = 1.0) -> Tuple[int, list]:
    """The shared-memory lane-plane floor: (checks run, failure labels).

    Per design, among current rows with a ``shm_speedup`` at
    :data:`SHM_FLOOR_MIN_PARTITIONS` partitions or more, the best ratio
    must be at least ``floor``.  Absolute, not baseline-relative: the
    shm and pipe arms ran back-to-back on the same host in the same
    sweep, so their ratio is host-independent in a way lane-cycles/sec
    is not.  Hosts without NumPy take the pipe path everywhere, record
    no ``shm_speedup`` rows, and run zero checks here.
    """
    eligible: Dict[str, float] = {}
    for row in current.get("rows", []):
        speedup = row.get("shm_speedup")
        partitions = row.get("partitions")
        if speedup is None or partitions is None:
            continue
        if int(partitions) < SHM_FLOOR_MIN_PARTITIONS:
            continue
        design = str(row.get("design"))
        eligible[design] = max(eligible.get(design, 0.0), float(speedup))
    failures = []
    for design, best in sorted(eligible.items()):
        status = "ok" if best >= floor else "FAIL"
        print(
            f"  [{status}] design={design}: best shm_speedup at "
            f"P>={SHM_FLOOR_MIN_PARTITIONS} is {best:.2f}x "
            f"(floor {floor:.2f}x)"
        )
        if best < floor:
            failures.append(f"design={design} (shm_speedup floor)")
    return len(eligible), failures


def gate(
    baseline: dict,
    current: dict,
    factor: float,
    replication_slack: float = 0.01,
) -> int:
    """Gate ``current`` rows against ``baseline`` rows.

    Two checks per matched row:

    * lane-cycles/sec may not fall more than ``factor``x below the
      baseline (loose: hosts differ);
    * ``replication_overhead``, when both sides record it, may not rise
      more than ``replication_slack`` (absolute) above the baseline --
      the partitioner is deterministic, so this gate is tight and keyed
      by strategy: a refined row quietly regressing back to greedy-level
      replication fails even if the host is fast enough to hide it.
    """
    if bool(baseline.get("numpy")) != bool(current.get("numpy")):
        print(
            f"perf-gate: numpy availability differs (baseline="
            f"{baseline.get('numpy')}, current={current.get('numpy')}); "
            "engines are not comparable -- skipping"
        )
        return 0
    base_rows = {row_key(row): row for row in baseline.get("rows", [])}
    compared = 0
    failures = []
    for row in current.get("rows", []):
        reference = base_rows.get(row_key(row))
        if reference is None:
            continue
        label = ", ".join(f"{k}={v}" for k, v in row_key(row))
        metric, value = row_metric(row)
        ref_metric, ref_value = row_metric(reference)
        if metric is None or ref_metric is None:
            side = "current" if metric is None else "baseline"
            print(f"  [skip] {label}: no usable metric on the {side} side")
        else:
            compared += 1
            floor = ref_value / factor
            status = "ok" if value >= floor else "FAIL"
            print(
                f"  [{status}] {label}: {metric} {value:.1f} "
                f"(baseline {ref_value:.1f}, floor {floor:.1f})"
            )
            if value < floor:
                failures.append(f"{label} ({metric})")
        rep = row.get("replication_overhead")
        ref_rep = reference.get("replication_overhead")
        if rep is not None and ref_rep is not None:
            compared += 1
            ceiling = float(ref_rep) + replication_slack
            status = "ok" if float(rep) <= ceiling else "FAIL"
            print(
                f"  [{status}] {label}: replication_overhead {float(rep):.4f} "
                f"(baseline {float(ref_rep):.4f}, ceiling {ceiling:.4f})"
            )
            if float(rep) > ceiling:
                failures.append(f"{label} (replication_overhead)")
    # The absolute floor rules run regardless of baseline matches.
    floor_checks, floor_failures = sparse_floor(current)
    failures.extend(floor_failures)
    compared += floor_checks
    floor_checks, floor_failures = compiled_floor(current)
    failures.extend(floor_failures)
    compared += floor_checks
    floor_checks, floor_failures = shm_floor(current)
    failures.extend(floor_failures)
    compared += floor_checks
    if compared == 0:
        print("perf-gate: no comparable rows between baseline and current")
        return 0
    if failures:
        print(
            f"perf-gate: {len(failures)}/{compared} checks regressed "
            f"past their thresholds"
        )
        return 1
    print(f"perf-gate: {compared} checks within thresholds")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="checked-in BENCH_*.json")
    parser.add_argument("--current", required=True,
                        help="freshly measured bench JSON")
    parser.add_argument("--factor", type=float, default=5.0,
                        help="allowed slowdown before failing (default 5x)")
    parser.add_argument("--replication-slack", type=float, default=0.01,
                        help="allowed absolute replication-overhead rise "
                        "above baseline (default 0.01; deterministic)")
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    current = json.loads(Path(args.current).read_text())
    if not baseline_path.exists():
        # No trajectory to compare against, but the absolute floor rules
        # (sparse_speedup) need no baseline -- a brand-new bench is still
        # gated on the day it lands.
        print(f"perf-gate: no baseline at {baseline_path} -- "
              "floor rules only")
        _, failures = sparse_floor(current)
        _, compiled_failures = compiled_floor(current)
        failures.extend(compiled_failures)
        _, shm_failures = shm_floor(current)
        failures.extend(shm_failures)
        return 1 if failures else 0
    baseline = json.loads(baseline_path.read_text())
    return gate(baseline, current, args.factor, args.replication_slack)


if __name__ == "__main__":
    sys.exit(main())
