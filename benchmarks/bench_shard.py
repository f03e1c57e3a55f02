#!/usr/bin/env python3
"""Bench for sharded batched simulation (repro.shard).

Measures lane-cycles/sec of a :class:`ShardedBatchSimulator` over a
B × P grid per executor (serial / thread / process), and records the
measured barrier critical path (the per-cycle rate a host with >= P free
cores pays).  Doubles as a CLI so CI can smoke it and so a JSON baseline
(``BENCH_shard.json``) feeds the perf-regression gate:

    PYTHONPATH=src python benchmarks/bench_shard.py --tiny
    PYTHONPATH=src python benchmarks/bench_shard.py --json BENCH_shard.json

As with all measured (non-modelled) numbers, absolute rates are
host-dependent.  On a single-CPU host the thread/process wall-clock
rates are time-sliced serial execution; the parallel win only shows in
wall-clock on multi-core hosts (e.g. the CI perf-smoke runners) and in
the critical-path column everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ and bench_common importable
    root = Path(__file__).resolve().parent
    sys.path.insert(0, str(root))
    sys.path.insert(0, str(root.parent / "src"))

from repro.batch import HAS_NUMPY
from repro.experiments.shard_throughput import render_rows, throughput_rows

from bench_common import show, warm

DESIGNS = ("rocket-1", "gemmini-8")
LANES = (8, 32)
PARTITIONS = (1, 2, 4)
EXECUTORS = ("serial", "thread", "process", "socket")
STRATEGIES = ("greedy", "refined")
CYCLES = 12

TINY_DESIGNS = ("rocket-1",)
TINY_LANES = (8,)
TINY_PARTITIONS = (1, 2)
TINY_EXECUTORS = ("serial", "process", "socket")
TINY_STRATEGIES = ("greedy", "refined")
TINY_CYCLES = 6


def _render(rows) -> str:
    return render_rows(
        rows, title="Sharded batched throughput: B lanes x P partitions "
        "(measured)"
    )


# ----------------------------------------------------------------------
# pytest entry points (same harness idiom as the sibling benches)
# ----------------------------------------------------------------------
def test_shard_critical_path_scales(benchmark):
    """At P=2 the measured barrier critical path beats one partition's
    share of the serial wall-clock: the exchange exposes parallelism."""
    warm("gemmini-8")
    rows = benchmark(
        throughput_rows, ("gemmini-8",), (8,), (2,), ("serial", "process"),
        "PSU", CYCLES,
    )
    by_executor = {row.executor: row for row in rows}
    process = by_executor["process"]
    serial = by_executor["serial"]
    # The process executor's critical path is what >=2 free cores pay.
    assert process.critical_path_lane_cps > serial.lane_cps
    if (os.cpu_count() or 1) >= 2:
        # With real cores available the wall-clock must beat serial too.
        assert process.lane_cps > serial.lane_cps
    show(_render(rows))


def test_shard_single_partition_overhead(benchmark):
    """P=1 sharding is the flat batch engine plus bounded orchestration
    overhead (no exchange traffic: nothing crosses a partition)."""
    warm("gemmini-8")
    rows = benchmark(
        throughput_rows, ("gemmini-8",), (8,), (1,), ("serial",), "PSU", CYCLES
    )
    assert rows[0].lane_cps > 0
    assert rows[0].replication_overhead == 0.0
    show(_render(rows))


def test_shm_planes_not_slower_than_pipes(benchmark):
    """Same-host shared-memory lane planes must not lose to the JSON
    pipe exchange they replace at P>=2 (the perf_gate shm floor: both
    arms measured back-to-back in one process, so the ratio is
    host-independent)."""
    import pytest

    from repro.batch import HAS_NUMPY

    if not HAS_NUMPY:
        pytest.skip("shm lane planes need NumPy")
    warm("rocket-1")
    rows = benchmark(
        throughput_rows, ("rocket-1",), (8,), (2,), ("process",), "PSU",
        CYCLES,
    )
    shm = [row for row in rows if row.transport == "shm"]
    assert shm and shm[0].shm_speedup is not None
    # The gate floors the best-of-grid ratio at 1.0; a single tiny point
    # gets headroom for scheduler noise.
    assert shm[0].shm_speedup > 0.7
    show(_render(rows))


def test_refined_partitioner_beats_greedy_replication(benchmark):
    """On a heavily shared design the KL/FM-refined cut replicates far
    less than the greedy balanced assignment, so the serial sharded rate
    recovers (refined does ~half the total work of greedy at P=2)."""
    warm("rocket-1")
    rows = benchmark(
        throughput_rows, ("rocket-1",), (8,), (2,), ("serial",), "PSU",
        CYCLES, ("greedy", "refined"),
    )
    by_strategy = {row.strategy: row for row in rows}
    greedy, refined = by_strategy["greedy"], by_strategy["refined"]
    assert refined.replication_overhead < 0.5 * greedy.replication_overhead
    # Refined does ~half greedy's total work at P=2, so it should be ~2x
    # faster serially; assert with wide margin (wall-clock is noisy).
    assert refined.lane_cps > 0.5 * greedy.lane_cps
    show(_render(rows))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sweep (CI): one design, small grid")
    parser.add_argument("--designs", nargs="+", default=None)
    parser.add_argument("--lanes", nargs="+", type=int, default=None)
    parser.add_argument("--partitions", nargs="+", type=int, default=None)
    parser.add_argument("--executors", nargs="+", default=None)
    parser.add_argument("--strategies", nargs="+", default=None,
                        help="partitioner strategies (greedy / refined)")
    parser.add_argument("--kernel", default="PSU")
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write rows + metadata as JSON")
    args = parser.parse_args(argv)

    designs = tuple(args.designs or (TINY_DESIGNS if args.tiny else DESIGNS))
    lanes = tuple(args.lanes or (TINY_LANES if args.tiny else LANES))
    partitions = tuple(
        args.partitions or (TINY_PARTITIONS if args.tiny else PARTITIONS)
    )
    executors = tuple(
        args.executors or (TINY_EXECUTORS if args.tiny else EXECUTORS)
    )
    strategies = tuple(
        args.strategies or (TINY_STRATEGIES if args.tiny else STRATEGIES)
    )
    cycles = args.cycles or (TINY_CYCLES if args.tiny else CYCLES)

    warm(*designs)
    rows = throughput_rows(designs, lanes, partitions, executors,
                           args.kernel, cycles, strategies)
    print(_render(rows))
    if not HAS_NUMPY:
        print("\n(NumPy not installed: pure-Python lane fallback measured)")
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print(f"\n(host has {cpus} CPU: thread/process wall-clock rates are "
              "time-sliced; the crit-path column is the >=P-core rate)")

    if args.json:
        payload = {
            "bench": "bench_shard",
            "numpy": HAS_NUMPY,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": cpus,
            "cycles_per_lane": cycles,
            "rows": [row.as_dict() for row in rows],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
