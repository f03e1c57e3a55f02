"""The fiber-driven OIM walk: activity as a first-class tensor dimension.

The repo's sparse-tensor substrate (:mod:`repro.tensor.fiber`, the
TeAAL lineage) represents tensors as fibers that *omit* empty
coordinates, so traversal cost scales with occupancy rather than shape.
This module applies the same idea to simulation time: the per-cycle
**toggled-value set** -- the slots whose values changed since the last
combinational pass -- is a compressed :class:`~repro.tensor.fiber.Fiber`
over the slot rank, and the OIM walk is driven from it instead of from
the dense layer schedule.  Real RTL workloads have activity factors far
below 1 (ESSENT's Box-1 observation), so the toggled fiber's occupancy
is usually a small fraction of ``num_slots`` and the walk touches only
the operations downstream of it.

Both activity-aware kernels -- the scalar
:class:`repro.kernels.activity.ActivityAwareKernel` and the batched
:class:`repro.batch.kernels.BatchActivityKernel` (which adds per-lane
masks and lane compaction on top) -- walk the shared
:class:`~repro.lower.program.OimProgram` (its ``layers``, its
``consumers`` transpose of the R rank, its ``leaf_slots``) through the
:class:`PendingLayers` queue defined here.  Sharing one program keeps
the two paths semantically identical and lets the :mod:`repro.serve`
artifact cache serve both from the same entry.

Soundness: layers are dependence levels, and every operation is a pure
function of its operand slots.  A record therefore needs re-evaluation
only when at least one operand slot is in the toggled fiber, and its
output joins the fiber only when the recomputed value actually differs
-- unchanged inputs imply unchanged outputs, transitively.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..tensor.fiber import Fiber


class PendingLayers:
    """Per-layer pending-record fibers, fed by the toggled fiber.

    Marking a slot inserts its consumer records into their layers'
    fibers; draining a layer iterates its fiber in coordinate order
    (concordant with the dense walk, so evaluation order -- and thus
    bit-exactness -- matches the plain kernels record for record).
    """

    __slots__ = ("_layers", "_consumers")

    def __init__(
        self,
        num_layers: int,
        consumers: Sequence[Tuple[Tuple[int, int], ...]],
    ) -> None:
        self._layers = [Fiber() for _ in range(num_layers)]
        self._consumers = consumers

    def mark(self, slot: int) -> None:
        """Queue every record reading ``slot`` (idempotent)."""
        for layer_index, record_index in self._consumers[slot]:
            self._layers[layer_index].set(record_index, 1)

    def pending(self, layer_index: int) -> List[int]:
        """The layer's queued record indices, in coordinate order."""
        return self._layers[layer_index].coords()
