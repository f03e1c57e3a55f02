"""Sharded batched simulation: B lanes × P partitions on parallel workers.

This package composes the repository's two scaling axes:

* :mod:`repro.repcut` partitions the dataflow graph RepCut-style, so
  each partition updates a disjoint register set with no intra-cycle
  dependencies (replicated fan-in cones buy the decoupling);
* :mod:`repro.batch` vectorises each partition's kernel across B
  independent stimulus lanes.

:class:`ShardedBatchSimulator` runs one lane-vectorised
:class:`~repro.batch.BatchSimulator` per partition and realises the
per-cycle RUM synchronisation (Cascade 2's ``LI[c+1] = LI[c,I] . RUM``)
as batched lane-vector exchanges -- one row per crossing register per
cycle, whatever B is.  A pluggable executor layer chooses how the P
per-partition kernels run each cycle::

    from repro.shard import ShardedBatchSimulator

    sim = ShardedBatchSimulator(
        firrtl_text, lanes=32, num_partitions=4, executor="process",
    )
    sim.poke("enable", 1)            # broadcasts across lanes
    sim.step(100)
    print(sim.peek("count"))         # -> list of 32 ints
    sim.close()                      # or use it as a context manager

The executor names (``serial``, ``thread``, ``process``, ``socket``) and
what each puts between coordinator and workers are described once, in
:mod:`repro.shard.executors`; ``partitioner=`` picks the cut
(``"greedy"`` or ``"refined"``, :mod:`repro.repcut.refine`).  Every
combination is bit-exact with the scalar :class:`~repro.sim.Simulator`
lane by lane (``tests/test_shard.py``, ``tests/test_shard_remote.py``).
"""

from .executors import EXECUTORS, ChannelExecutor
from .remote import serve_shard_worker, spawn_local_workers
from .simulator import ShardLaneState, ShardSnapshot, ShardedBatchSimulator

__all__ = [
    "EXECUTORS",
    "ChannelExecutor",
    "ShardLaneState",
    "ShardSnapshot",
    "ShardedBatchSimulator",
    "serve_shard_worker",
    "spawn_local_workers",
]
