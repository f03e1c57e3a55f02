"""The benchmark's workload table, stimulus and reference check.

Why each workload exists is recorded once, in ``BENCHMARK.json``
(``workloads[].why``) and at length in ``README.md``; this table holds
only what the runner needs to build and drive it.

Everything here that touches ``repro`` imports it lazily, so the
orchestrator (``run.py``) can read the table without NumPy or ``src/``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: How many leading cycles, on which lanes, are checked against the
#: independent reference interpreter -- off the clock, before the timed
#: windows.  The first and the last lane see different seeds.
REFERENCE_CYCLES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``batch`` (BatchSimulator), ``shard`` (ShardedBatchSimulator) or
    #: ``served`` (server child + client threads).
    kind: str
    design: str
    lanes: int
    kernel: str
    #: Cycles per timed window.  Fixed, not time-boxed: design state
    #: evolves, so windows of different length measure different work.
    #: Sized so a window takes about half a second on the 2-core host,
    #: which puts 20-25 windows into the 10 s a run measures.
    cycles: int
    #: Inputs are held for this many cycles (1 = dense stimulus).
    period: int = 1
    #: Served workload only: concurrent client connections.
    clients: int = 0

    @property
    def compiled(self) -> bool:
        return self.kernel == "compiled"


WORKLOADS: Tuple[Workload, ...] = (
    Workload("rocket1_compiled_b64", "batch", "rocket-1", 64, "compiled", 250),
    Workload("gemmini8_compiled_b64", "batch", "gemmini-8", 64, "compiled", 1500),
    Workload("sha3_walk_b64", "batch", "sha3", 64, "PSU", 500),
    Workload("sha3_activity_sparse_b64", "batch", "sha3", 64, "activity", 2000,
             period=64),
    Workload("sha3_activity_dense_b64", "batch", "sha3", 64, "activity", 128),
    Workload("gemmini16_shard_p2", "shard", "gemmini-16", 64, "compiled", 100),
    Workload("gemmini8_served_n2", "served", "gemmini-8", 8, "compiled", 400,
             clients=2),
)
BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Sharded workload shape (one value each, so constants, not fields).
SHARD_PARTITIONS = 2
SHARD_PARTITIONER = "refined"
SHARD_EXECUTOR = "process"


def skip_reason(workload: Workload) -> Optional[str]:
    """Why this host cannot run the workload as specified, or ``None``.

    A missing NumPy or C toolchain makes ``repro`` fall back to a slower
    kernel without failing; measuring that under the workload's name
    would be a lie, so the workload is skipped with the reason instead.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "NumPy is not installed"
    from repro.lower.cbackend import has_toolchain

    if workload.compiled and not has_toolchain():
        return "no C compiler (cc/gcc/clang, or REPRO_CC) available"
    return None


# ----------------------------------------------------------------------
# Stimulus, generated from the seed before any clock starts
# ----------------------------------------------------------------------
LaneStimulus = List[List[Tuple[str, int]]]        # [cycle][(input, value)]
BatchStimulus = List[List[Tuple[str, List[int]]]]  # [cycle][(input, lanes)]


def batch_stimulus(workload: Workload, seed: int) -> BatchStimulus:
    """Every cycle's per-lane input vectors for one window.

    The xorshift drivers of ``repro.workloads`` are the load generator,
    not the simulator: evaluated on the clock they cost a third of
    ``gemmini-8``'s cycle (110k instead of 170k lane-cycles/s).
    """
    from repro.workloads.stimulus import (
        batched_workload_for,
        sparse_batched_workload_for,
    )

    base_seed = seed & 0xFFFFFFFF
    if workload.period > 1:
        drivers = sparse_batched_workload_for(
            workload.design, workload.lanes, workload.period, base_seed=base_seed
        )
    else:
        drivers = batched_workload_for(
            workload.design, workload.lanes, base_seed=base_seed
        )
    names = list(drivers.lanes[0].drivers)
    return [
        [(name, [lane.drivers[name](cycle) for lane in drivers.lanes])
         for name in names]
        for cycle in range(workload.cycles)
    ]


def lane_of(stimulus: BatchStimulus, lane: int, cycles: int) -> LaneStimulus:
    return [[(name, values[lane]) for name, values in pokes]
            for pokes in stimulus[:cycles]]


def client_stimulus(workload: Workload, seed: int, client: int) -> LaneStimulus:
    """One served client's scalar input stream; client RNGs are seeded
    from ``--seed`` so two clients never replay the same stream."""
    from repro.workloads.stimulus import workload_for

    client_seed = random.Random(seed * 1009 + client).getrandbits(32)
    drivers = workload_for(workload.design, seed=client_seed).drivers
    return [[(name, driver(cycle)) for name, driver in drivers.items()]
            for cycle in range(workload.cycles)]


# ----------------------------------------------------------------------
# Reference check
# ----------------------------------------------------------------------
def reference_mismatches(
    flat,
    stimulus: LaneStimulus,
    observed: Sequence[Dict[str, int]],
) -> int:
    """Replay one lane's stimulus through the independent
    ``ReferenceSimulator`` of the elaborated design ``flat`` and count
    the cycles on which any output differs from what the engine showed
    (``observed[cycle][output]``).

    Every workload observes *before* the clock edge (poke, peek, step):
    the reference does not re-evaluate on ``poke``, so a peek between
    the edge and the next cycle's pokes would leave it a cycle behind.
    """
    from repro.firrtl.reference import ReferenceSimulator

    reference = ReferenceSimulator(flat)
    mismatches = 0
    for pokes, seen in zip(stimulus, observed):
        for name, value in pokes:
            reference.poke(name, value)
        expected = {name: reference.peek(name) for name in seen}
        reference.step()
        mismatches += expected != seen
    return mismatches
