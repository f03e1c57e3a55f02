"""Batched tensor simulation: many stimulus lanes through one OIM pass.

Batched simulation
==================

Full-cycle RTL simulation in this reproduction evaluates the design's
OIM (operation-interconnection matrix) once per cycle over a value plane
``V``.  Tensor algebra gives that evaluation a *batch rank for free*:
widening every slot from a scalar to a vector of ``B`` independent lanes
turns the same compiled design into a throughput engine -- one OIM pass
advances B simulations at once, the way GSIM and Manticore exploit bulk
parallelism across independent evaluation units.  Lanes share the design
and the kernel but nothing else, which is exactly the shape of multi-seed
regression sweeps and design-space exploration.

:class:`BatchSimulator` keeps the scalar simulator's surface::

    from repro.batch import BatchSimulator
    from repro.workloads.stimulus import batched_workload_for

    sim = BatchSimulator("rocket-1 FIRRTL or bundle...", lanes=64)
    workload = batched_workload_for("rocket-1", lanes=64)   # one seed per lane
    for cycle in range(1000):
        workload.apply(sim, cycle)          # pokes per-lane input vectors
        sim.step()
    print(sim.peek("out"))                  # -> list of 64 ints

Execution styles and backends
-----------------------------

The batched NumPy kernel (:mod:`repro.batch.kernels`) is a vectorised
RU-style map/reduce *walk* over the shared lowered program; every scalar
kernel name (``RU`` ... ``TI``) selects it.  ``kernel="compiled"`` swaps
in the compiled C pass where a toolchain exists.  A second style,
``activity`` (``kernel="activity"`` or
``"activity:PSU"``), drives the walk from the per-cycle toggled-value
fiber with per-lane activity masks and lane compaction
(:class:`repro.batch.kernels.BatchActivityKernel`): sparsely-active
batches gather their active lanes into a dense B' < B sub-plane, and
quiescent cycles skip the OIM pass entirely.
Storage (:mod:`repro.batch.backend`) is a batched value plane: one
NumPy uint64 plane of ``ceil(width/64)`` limb rows per slot (reported
as ``u64`` when every slot fits 64 bits -- the plane is then
``(num_slots, B)`` -- and as ``u64xN`` when some slot needs more, with
carry-propagating limb kernels for exactly the wide operations), and a
pure-Python list-of-lists fallback when NumPy is absent -- NumPy is
strictly optional (the ``[batch]`` extra) and this package always
imports cleanly without it.  ``auto`` resolves to ``u64``/``u64xN``
with NumPy and ``python`` without, so >64-bit designs such as sha3 stay
on the vectorised plane.

All paths are bit-exact with B independent scalar ``Simulator`` runs,
including multi-clock ``step_domain``, ``reset`` and checkpointing;
``tests/test_batch.py`` asserts lane-wise lockstep equivalence across
designs, kernels, and backends.
"""

from .backend import BACKENDS, HAS_NUMPY, pick_backend
from .kernels import (
    BatchActivityKernel,
    BatchKernel,
    BatchPyKernel,
    BatchWalkKernel,
    make_batch_kernel,
)
from .simulator import BatchSimulator, BatchSnapshot

__all__ = [
    "BACKENDS",
    "BatchActivityKernel",
    "BatchKernel",
    "BatchPyKernel",
    "BatchSimulator",
    "BatchSnapshot",
    "BatchWalkKernel",
    "HAS_NUMPY",
    "make_batch_kernel",
    "pick_backend",
]
