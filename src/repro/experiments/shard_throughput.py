"""Sharded-batched throughput: lane-cycles/sec over a B × P grid.

Measures the ROADMAP's sharding direction on *this* reproduction: how
fast does a :class:`repro.shard.ShardedBatchSimulator` (B lanes × P
RepCut partitions) advance, per executor and per partitioning strategy?
As with :mod:`~repro.experiments.batch_throughput`, these are measured
wall-clock numbers of the executable Python kernels -- absolute rates
are host-dependent.

Each row also records the measured *critical path* rate: lane-cycles/sec
against the sum over cycles of the slowest partition's kernel time.
That is the per-cycle cost a host with >= P free cores pays; on a
single-CPU host the wall-clock ``process``/``thread`` rates degenerate
to time-slicing (no parallel win is physically possible there), while
the critical path stays an honest measurement of the exposed
parallelism.

The ``strategy`` axis is the greedy-vs-refined partitioner comparison:
``greedy`` rows carry the balanced cone assignment's replication
overhead (~97% of rocket-1 at P=2), ``refined`` rows the
replication-capped KL/FM cut (:mod:`repro.repcut.refine`).  Replication
overhead is recorded per row and gated deterministically by
``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..designs.registry import compiled_graph
from ..workloads.stimulus import batched_workload_for
from .common import format_table

DEFAULT_DESIGNS: Tuple[str, ...] = ("rocket-1", "gemmini-8")
DEFAULT_LANES: Tuple[int, ...] = (8, 32)
DEFAULT_PARTITIONS: Tuple[int, ...] = (1, 2, 4)
DEFAULT_EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process")
DEFAULT_STRATEGIES: Tuple[str, ...] = ("greedy", "refined")
DEFAULT_CYCLES = 12


@dataclass
class ShardRow:
    """One (design, B, P, executor, strategy, transport) measurement."""

    design: str
    kernel: str
    lanes: int
    partitions: int
    executor: str
    strategy: str
    cycles: int
    lane_cps: float
    critical_path_lane_cps: float
    replication_overhead: float
    effective_partitions: int
    styles: str
    #: How lane rows crossed during the exchange: ``local`` (serial/
    #: thread), ``pipe``/``shm`` (process), or ``socket``.
    transport: str = "local"
    #: shm rows only: lane_cps relative to the matching pipe row of the
    #: same grid point (attached by :func:`attach_shm_speedup`).
    shm_speedup: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "design": self.design,
            "kernel": self.kernel,
            "lanes": self.lanes,
            "partitions": self.partitions,
            "executor": self.executor,
            "strategy": self.strategy,
            "cycles": self.cycles,
            "lane_cps": self.lane_cps,
            "critical_path_lane_cps": self.critical_path_lane_cps,
            "replication_overhead": self.replication_overhead,
            "effective_partitions": self.effective_partitions,
            "styles": self.styles,
            "transport": self.transport,
        }
        if self.shm_speedup is not None:
            row["shm_speedup"] = self.shm_speedup
        return row


def measure(
    design_name: str,
    kernel: str = "PSU",
    lanes: int = 8,
    partitions: int = 2,
    executor: str = "serial",
    cycles: int = DEFAULT_CYCLES,
    base_seed: int = 0xB47C4,
    strategy: str = "greedy",
    max_replication: Optional[float] = None,
    shm_planes: Optional[bool] = None,
    repeats: int = 1,
) -> ShardRow:
    """Measure one grid point (one warm-up cycle, then ``cycles`` timed).

    ``repeats`` re-runs the timed loop on the same simulator and keeps
    the fastest repetition (min-of-N): worker spawn cost stays outside
    the timing either way, and scheduler noise on shared hosts mostly
    shows up as one slow repetition, not a fast one.
    """
    from ..shard import ShardedBatchSimulator

    graph = compiled_graph(design_name)
    workload = batched_workload_for(design_name, lanes, base_seed=base_seed)
    with ShardedBatchSimulator(
        graph,
        lanes=lanes,
        num_partitions=partitions,
        kernel=kernel,
        executor=executor,
        partitioner=strategy,
        max_replication=max_replication,
        shm_planes=shm_planes if executor == "process" else None,
    ) as sim:
        workload.apply(sim, 0)
        sim.step()  # warm-up: first settle builds nothing, but be uniform
        elapsed = critical = None
        cycle = 0
        for _ in range(max(1, repeats)):
            mark_max = sim.step_max_seconds
            start = time.perf_counter()
            for _ in range(cycles):
                cycle += 1
                workload.apply(sim, cycle)
                sim.step()
            rep_elapsed = time.perf_counter() - start
            if elapsed is None or rep_elapsed < elapsed:
                elapsed = rep_elapsed
                critical = sim.step_max_seconds - mark_max
        styles = ",".join(sorted(set(sim.describe_partitions())))
        overhead = sim.replication_overhead
        effective = sim.num_partitions
        transport = sim.transport

    lane_cycles = lanes * cycles
    return ShardRow(
        design=design_name,
        kernel=kernel,
        lanes=lanes,
        partitions=partitions,
        executor=executor,
        strategy=strategy,
        cycles=cycles,
        lane_cps=lane_cycles / max(elapsed, 1e-12),
        critical_path_lane_cps=lane_cycles / max(critical, 1e-12),
        replication_overhead=overhead,
        effective_partitions=effective,
        styles=styles,
        transport=transport,
    )


def attach_shm_speedup(rows: Sequence[ShardRow]) -> None:
    """Fill in ``shm_speedup`` on shm rows that have a matching pipe row.

    Both arms of a pair ran on the same host in the same sweep, so the
    ratio is host-independent in a way raw lane-cps is not -- it is the
    absolute floor ``benchmarks/perf_gate.py`` holds at >= 1x for P >= 2
    (zero-copy index writes may never lose to JSON pipe rows).
    """
    pipe = {
        (row.design, row.kernel, row.lanes, row.partitions, row.strategy):
            row.lane_cps
        for row in rows
        if row.transport == "pipe"
    }
    for row in rows:
        if row.transport != "shm":
            continue
        reference = pipe.get(
            (row.design, row.kernel, row.lanes, row.partitions, row.strategy)
        )
        if reference:
            row.shm_speedup = row.lane_cps / reference


def throughput_rows(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    lanes_list: Sequence[int] = DEFAULT_LANES,
    partitions_list: Sequence[int] = DEFAULT_PARTITIONS,
    executors: Sequence[str] = DEFAULT_EXECUTORS,
    kernel: str = "PSU",
    cycles: int = DEFAULT_CYCLES,
    strategies: Sequence[str] = ("greedy",),
) -> List[ShardRow]:
    """The full B × P × executor × strategy grid, one row per point.

    ``process`` points that resolve onto the shared-memory transport are
    measured twice -- shm and pipe -- so the zero-copy exchange has an
    in-sweep reference, recorded as ``shm_speedup`` on the shm row.
    """
    rows: List[ShardRow] = []
    for design in designs:
        for lanes in lanes_list:
            for partitions in partitions_list:
                for strategy in strategies:
                    for executor in executors:
                        # Process points feed the absolute shm-vs-pipe
                        # floor, so they get a min-of-2 measurement.
                        repeats = 2 if executor == "process" else 1
                        row = measure(design, kernel, lanes, partitions,
                                      executor, cycles, strategy=strategy,
                                      repeats=repeats)
                        rows.append(row)
                        if row.transport == "shm":
                            rows.append(
                                measure(design, kernel, lanes, partitions,
                                        executor, cycles, strategy=strategy,
                                        shm_planes=False, repeats=repeats)
                            )
    attach_shm_speedup(rows)
    return rows


def _serial_reference(
    rows: Sequence[ShardRow],
) -> Dict[Tuple[str, str, int, int, str], float]:
    return {
        (row.design, row.kernel, row.lanes, row.partitions, row.strategy):
            row.lane_cps
        for row in rows
        if row.executor == "serial"
    }


def render_rows(rows: Sequence[ShardRow], title: str) -> str:
    """The grid as a table, with each row's speedup over the matching
    serial-executor point (shared with ``benchmarks/bench_shard.py``)."""
    serial = _serial_reference(rows)
    body = []
    for row in rows:
        reference = serial.get(
            (row.design, row.kernel, row.lanes, row.partitions, row.strategy)
        )
        ratio = f"{row.lane_cps / reference:.2f}x" if reference else "-"
        body.append([
            row.design,
            row.kernel,
            row.lanes,
            row.partitions,
            row.executor,
            row.transport,
            row.strategy,
            f"{row.replication_overhead:.1%}",
            row.styles,
            row.lane_cps,
            row.critical_path_lane_cps,
            ratio,
        ])
    return format_table(
        ["design", "kernel", "B", "P", "executor", "transport", "strategy",
         "repl", "backend/style", "lane c/s", "crit-path lane c/s",
         "vs serial"],
        body,
        title=title,
    )


def render_shard_throughput(
    designs: Sequence[str] = DEFAULT_DESIGNS,
    lanes_list: Sequence[int] = DEFAULT_LANES,
    partitions_list: Sequence[int] = DEFAULT_PARTITIONS,
    executors: Sequence[str] = DEFAULT_EXECUTORS,
    kernel: str = "PSU",
    cycles: int = DEFAULT_CYCLES,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> str:
    text = render_rows(
        throughput_rows(designs, lanes_list, partitions_list, executors,
                        kernel, cycles, strategies),
        title=f"Sharded batched throughput (measured, {cycles} cycles/lane): "
        "B lanes x P partitions per executor and partitioner",
    )
    cpus = os.cpu_count() or 1
    if cpus < 2:
        text += (
            f"\n(host has {cpus} CPU: thread/process wall-clock rates are "
            "time-sliced; the crit-path column is the >=P-core rate)"
        )
    return text
