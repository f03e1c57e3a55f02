"""Activity-factor sweep: per-cycle cost vs input toggle activity.

The paper's full-cycle baseline is activity-oblivious (Section 2.1):
every cycle evaluates the whole OIM regardless of how much of the design
toggled.  The activity engines (``kernel="activity"``) make the toggled
set a first-class tensor dimension instead -- a compressed fiber drives
the walk, quiet lanes are compacted out of the value plane -- so their
per-cycle cost should *scale with activity* where the dense engines stay
flat.  This experiment measures exactly that curve.

For each (design, hold period) point the same held stimulus
(:func:`repro.workloads.sparsify` -- inputs change every ``period``
cycles, nominal input activity ``1/period``) runs through a dense
:class:`~repro.batch.BatchSimulator` and an activity one, recording
lane-cycles/sec of both, their ratio (``sparse_speedup``), and the
activity kernel's measured skip rates.  As with every measured (non-
modelled) number here, absolute rates are host-dependent; the recorded
results are the ratios.

CLI::

    PYTHONPATH=src python -m repro.experiments activity-sweep
    PYTHONPATH=src python -m repro.experiments activity-sweep \\
        --designs rocket-1 sha3 --periods 1 8 32 --lanes 8
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..designs.registry import compile_named_design
from ..workloads.stimulus import batched_workload_for, sparsify
from .common import format_table

DEFAULT_DESIGNS: Tuple[str, ...] = ("rocket-1", "sha3")
#: Hold periods swept: nominal input activity 1, 1/4, 1/16, 1/64.
DEFAULT_PERIODS: Tuple[int, ...] = (1, 4, 16, 64)
DEFAULT_LANES = 8
DEFAULT_CYCLES = 96


@dataclass
class ActivityRow:
    """One (design, period) point: dense vs activity engine, same stream."""

    design: str
    kernel: str
    lanes: int
    period: int
    cycles: int
    backend: str
    dense_lane_cps: float
    sparse_lane_cps: float
    op_skip_rate: float
    lane_skip_rate: float

    @property
    def activity_factor(self) -> float:
        """Nominal input activity: the fraction of cycles an input
        stream presents a fresh value."""
        return 1.0 / self.period

    @property
    def sparse_speedup(self) -> float:
        return self.sparse_lane_cps / max(self.dense_lane_cps, 1e-12)

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": "activity",
            "design": self.design,
            "kernel": self.kernel,
            "lanes": self.lanes,
            "period": self.period,
            "cycles": self.cycles,
            "backend": self.backend,
            "activity_factor": self.activity_factor,
            "dense_lane_cps": self.dense_lane_cps,
            "sparse_lane_cps": self.sparse_lane_cps,
            "sparse_speedup": self.sparse_speedup,
            "op_skip_rate": self.op_skip_rate,
            "lane_skip_rate": self.lane_skip_rate,
        }


def measure(
    design_name: str,
    period: int,
    kernel: str = "PSU",
    lanes: int = DEFAULT_LANES,
    cycles: int = DEFAULT_CYCLES,
    base_seed: int = 0xB47C4,
    backend: str = "auto",
) -> ActivityRow:
    """Measure one (design, period) point, both engines on one stream."""
    from ..batch import BatchSimulator

    bundle = compile_named_design(design_name)
    workload = sparsify(
        batched_workload_for(design_name, lanes, base_seed=base_seed), period
    )
    lane_cycles = lanes * cycles

    def run(sim) -> float:
        start = time.perf_counter()
        for cycle in range(cycles):
            workload.apply(sim, cycle)
            sim.step()
        return lane_cycles / max(time.perf_counter() - start, 1e-12)

    dense = BatchSimulator(bundle, lanes=lanes, kernel=kernel, backend=backend)
    dense_cps = run(dense)
    sparse = BatchSimulator(
        bundle, lanes=lanes, kernel=f"activity:{kernel}", backend=backend
    )
    sparse_cps = run(sparse)
    stats = sparse.activity_stats
    return ActivityRow(
        design=design_name,
        kernel=kernel,
        lanes=lanes,
        period=period,
        cycles=cycles,
        backend=sparse.backend,
        dense_lane_cps=dense_cps,
        sparse_lane_cps=sparse_cps,
        op_skip_rate=stats.op_skip_rate,
        lane_skip_rate=stats.lane_skip_rate,
    )


def sweep_rows(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    periods: Sequence[int] = DEFAULT_PERIODS,
    kernel: str = "PSU",
    lanes: int = DEFAULT_LANES,
    cycles: int = DEFAULT_CYCLES,
) -> List[ActivityRow]:
    """The full sweep, one row per (design, hold period)."""
    return [
        measure(design, period, kernel=kernel, lanes=lanes, cycles=cycles)
        for design in designs
        for period in periods
    ]


def render_rows(rows: Sequence[ActivityRow], title: str) -> str:
    """The sweep as a table (shared with ``benchmarks/bench_activity.py``)."""
    return format_table(
        ["design", "B", "period", "activity", "dense lc/s", "sparse lc/s",
         "speedup", "op skip", "lane skip"],
        [
            [
                row.design,
                row.lanes,
                row.period,
                f"{row.activity_factor:.3f}",
                row.dense_lane_cps,
                row.sparse_lane_cps,
                f"{row.sparse_speedup:.2f}x",
                f"{row.op_skip_rate:.2f}",
                f"{row.lane_skip_rate:.2f}",
            ]
            for row in rows
        ],
        title=title,
    )


# ----------------------------------------------------------------------
# CLI: python -m repro.experiments activity-sweep [--designs ...]
# ----------------------------------------------------------------------
def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments activity-sweep",
        description=(
            "Sweep the input activity factor (stimulus hold period) and "
            "measure dense vs activity-engine per-cycle cost."
        ),
    )
    parser.add_argument("--designs", nargs="+", default=list(DEFAULT_DESIGNS))
    parser.add_argument("--periods", nargs="+", type=int,
                        default=list(DEFAULT_PERIODS))
    parser.add_argument("--kernel", default="PSU")
    parser.add_argument("--lanes", type=int, default=DEFAULT_LANES)
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES)
    args = parser.parse_args(argv)
    print(render_rows(
        sweep_rows(args.designs, args.periods, kernel=args.kernel,
                   lanes=args.lanes, cycles=args.cycles),
        title=f"Activity sweep (measured, {args.cycles} cycles, "
        f"B={args.lanes}): dense vs fiber-driven sparse engine",
    ))
    return 0
