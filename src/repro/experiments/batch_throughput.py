"""Batched-throughput experiment: lane-cycles/sec, batched vs scalar.

Not a paper figure -- this measures the ROADMAP's batching direction on
*this* reproduction: how much faster does one B-lane
:class:`repro.batch.BatchSimulator` advance B seeds than running B scalar
:class:`repro.sim.Simulator` sweeps sequentially?  Unlike the modelled
experiments (``perf/``), these are measured wall-clock numbers of the
executable Python kernels, so absolute rates are host-dependent; the
*ratio* (lane-throughput speedup) is the result.

The scalar arm reuses one simulator across lanes (``reset`` between
seeds) so it never pays per-lane kernel construction -- the comparison
is strictly per-cycle work, which favours the scalar side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..designs.registry import compile_named_design
from ..workloads.stimulus import batched_workload_for
from .common import format_table

#: Defaults keep the CLI run quick; benchmarks pass larger values.
DEFAULT_DESIGNS: Tuple[str, ...] = ("rocket-1", "sha3")
DEFAULT_KERNELS: Tuple[str, ...] = ("PSU", "SU")
DEFAULT_LANES: Tuple[int, ...] = (8, 64)
DEFAULT_CYCLES = 48


@dataclass
class ThroughputRow:
    """One (design, kernel, B) measurement."""

    design: str
    kernel: str
    lanes: int
    backend: str
    style: str
    cycles: int
    scalar_lane_cps: float
    batch_lane_cps: float

    @property
    def speedup(self) -> float:
        return self.batch_lane_cps / max(self.scalar_lane_cps, 1e-12)

    def as_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "kernel": self.kernel,
            "lanes": self.lanes,
            "backend": self.backend,
            "style": self.style,
            "cycles": self.cycles,
            "scalar_lane_cps": self.scalar_lane_cps,
            "batch_lane_cps": self.batch_lane_cps,
            "speedup": self.speedup,
        }


def measure(
    design_name: str,
    kernel: str = "PSU",
    lanes: int = 8,
    cycles: int = DEFAULT_CYCLES,
    base_seed: int = 0xB47C4,
) -> ThroughputRow:
    """Measure one design/kernel/B point: the scalar arm, then the
    batched arm on the design's own plane, identical stimulus in both."""
    from ..batch import BatchSimulator
    from ..sim.simulator import Simulator

    bundle = compile_named_design(design_name)
    workload = batched_workload_for(design_name, lanes, base_seed=base_seed)

    # The compiled C pass is batch-only; its scalar reference arm is the
    # SU kernel it was lowered from (same straight-line program).
    scalar_kernel = "SU" if kernel == "compiled" else kernel
    scalar = Simulator(bundle, kernel=scalar_kernel)
    start = time.perf_counter()
    for lane in range(lanes):
        scalar.reset()
        drivers = workload.lane(lane).drivers
        for cycle in range(cycles):
            for name, driver in drivers.items():
                scalar.poke(name, driver(cycle))
            scalar.step()
    scalar_elapsed = time.perf_counter() - start

    batch = BatchSimulator(bundle, lanes=lanes, kernel=kernel)
    start = time.perf_counter()
    for cycle in range(cycles):
        workload.apply(batch, cycle)
        batch.step()
    batch_elapsed = time.perf_counter() - start

    lane_cycles = lanes * cycles
    return ThroughputRow(
        design=design_name,
        kernel=kernel,
        lanes=lanes,
        backend=batch.backend,
        style=batch.kernel.style,
        cycles=cycles,
        scalar_lane_cps=lane_cycles / max(scalar_elapsed, 1e-12),
        batch_lane_cps=lane_cycles / max(batch_elapsed, 1e-12),
    )


def throughput_rows(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    lanes_list: Sequence[int] = DEFAULT_LANES,
    cycles: int = DEFAULT_CYCLES,
) -> List[ThroughputRow]:
    """The full sweep, one row per (design, kernel, B)."""
    return [
        measure(design, kernel, lanes, cycles)
        for design in designs
        for kernel in kernels
        for lanes in lanes_list
    ]


def attach_compiled_speedup(row_dicts: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Annotate compiled-kernel row dicts with ``compiled_speedup``: the
    ratio over the SU NumPy codegen kernel at the same (design, B,
    backend) -- the metric the perf gate's compiled floor enforces.
    Rows whose compiled request fell back (style != "compiled") are left
    unannotated; they measured the fallback, not the C pass."""
    su = {
        (d["design"], d["lanes"], d["backend"]): float(d["batch_lane_cps"])
        for d in row_dicts
        if d["kernel"] == "SU" and d["batch_lane_cps"]
    }
    for d in row_dicts:
        if d["kernel"] != "compiled" or d.get("style") != "compiled":
            continue
        base = su.get((d["design"], d["lanes"], d["backend"]))
        if base:
            d["compiled_speedup"] = float(d["batch_lane_cps"]) / base
    return row_dicts


def render_rows(rows: Sequence[ThroughputRow], title: str) -> str:
    """The sweep as a table (shared with ``benchmarks/bench_batch.py``)."""
    return format_table(
        ["design", "kernel", "B", "backend/style", "scalar lc/s", "batch lc/s", "speedup"],
        [
            [
                row.design,
                row.kernel,
                row.lanes,
                f"{row.backend}/{row.style}",
                row.scalar_lane_cps,
                row.batch_lane_cps,
                f"{row.speedup:.2f}x",
            ]
            for row in rows
        ],
        title=title,
    )


def render_batch_throughput(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    lanes_list: Sequence[int] = DEFAULT_LANES,
    cycles: int = DEFAULT_CYCLES,
) -> str:
    return render_rows(
        throughput_rows(designs, kernels, lanes_list, cycles),
        title=f"Batched throughput (measured, {cycles} cycles/lane): one "
        "B-lane pass vs B sequential scalar sweeps",
    )
