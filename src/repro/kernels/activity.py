"""Activity-aware simulation: the OIM walk driven by a toggled-value fiber.

Box 1 classifies ESSENT's signature optimisation -- "skipping partitions
w/o activity" -- as a *cascade-level* change: the cascade gains signal
recording and conditional evaluation.  This module implements it for the
RTeAAL kernels at *record* granularity: the per-cycle toggled-value set
is a compressed :class:`~repro.tensor.fiber.Fiber`
(:mod:`repro.kernels.fiberwalk`), and only the operations downstream of it
re-evaluate.  Between combinational passes only the walk's leaves --
input slots and register state slots -- can change, so one leaf diff
seeds the fiber and change propagation does the rest.

This is sound for full-cycle semantics because operations are pure
functions of their operand slots: unchanged inputs imply unchanged
outputs, transitively.  The tests drive an activity-aware kernel in
lockstep with its plain counterpart and also check that low-activity
stimulus actually skips work (the paper's RTL designs have activity
factors well below 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..lower.program import cached_program
from ..oim.builder import OimBundle
from .config import KernelConfig, get_kernel_config
from .fiberwalk import PendingLayers
from .pykernels import Kernel


@dataclass
class ActivityStats:
    """Counters for the activity tracker, uniform across engines.

    The layer/op counters are filled by scalar and batch kernels; the
    lane counters only by batch kernels (lane compaction); shards merge
    their partitions' stats with :meth:`merge`.
    """

    cycles: int = 0
    layers_evaluated: int = 0
    layers_skipped: int = 0
    ops_evaluated: int = 0
    ops_skipped: int = 0
    lanes_active: int = 0
    lanes_skipped: int = 0

    @property
    def layer_skip_rate(self) -> float:
        total = self.layers_evaluated + self.layers_skipped
        return self.layers_skipped / total if total else 0.0

    @property
    def op_skip_rate(self) -> float:
        total = self.ops_evaluated + self.ops_skipped
        return self.ops_skipped / total if total else 0.0

    @property
    def lane_skip_rate(self) -> float:
        total = self.lanes_active + self.lanes_skipped
        return self.lanes_skipped / total if total else 0.0

    def merge(self, other: "ActivityStats") -> None:
        """Accumulate ``other`` into ``self`` (shard/fleet aggregation)."""
        self.cycles = max(self.cycles, other.cycles)
        self.layers_evaluated += other.layers_evaluated
        self.layers_skipped += other.layers_skipped
        self.ops_evaluated += other.ops_evaluated
        self.ops_skipped += other.ops_skipped
        self.lanes_active += other.lanes_active
        self.lanes_skipped += other.lanes_skipped

    def as_dict(self) -> Dict[str, float]:
        """A JSON-safe view (counters plus derived rates)."""
        return {
            "cycles": self.cycles,
            "layers_evaluated": self.layers_evaluated,
            "layers_skipped": self.layers_skipped,
            "ops_evaluated": self.ops_evaluated,
            "ops_skipped": self.ops_skipped,
            "lanes_active": self.lanes_active,
            "lanes_skipped": self.lanes_skipped,
            "layer_skip_rate": self.layer_skip_rate,
            "op_skip_rate": self.op_skip_rate,
            "lane_skip_rate": self.lane_skip_rate,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "ActivityStats":
        return cls(**{
            key: int(payload.get(key, 0))
            for key in (
                "cycles", "layers_evaluated", "layers_skipped",
                "ops_evaluated", "ops_skipped",
                "lanes_active", "lanes_skipped",
            )
        })


def merge_stats(parts: Iterable[Optional[ActivityStats]]) -> ActivityStats:
    """Fold per-partition/per-member stats into one aggregate."""
    total = ActivityStats()
    for part in parts:
        if part is not None:
            total.merge(part)
    return total


class ActivityAwareKernel(Kernel):
    """The scalar fiber-driven walk.

    Keeps a snapshot of the leaf slots (inputs + register state) from
    the last pass; their diff seeds the toggled fiber, and the walk
    evaluates exactly the records queued by
    :class:`~repro.kernels.fiberwalk.PendingLayers` -- marking each
    record's consumers only when its output value actually changed, so
    quiescent cones cost nothing at all.
    """

    def __init__(self, bundle: OimBundle, config: KernelConfig | str = "PSU") -> None:
        if isinstance(config, str):
            config = get_kernel_config(config)
        super().__init__(bundle, config)
        self.stats = ActivityStats()
        self.program = cached_program(bundle)
        self._semantics = [
            bundle.op_table.entry(code).semantics
            for code in range(len(bundle.op_table))
        ]
        #: Leaf values from the last pass (None = cold: full walk next).
        self._last_leaves: Optional[List[int]] = None

    def eval_comb(self, values: List[int]) -> None:
        self.stats.cycles += 1
        program = self.program
        leaves = program.leaf_slots
        semantics = self._semantics
        if self._last_leaves is None:
            # Cold pass: the plane's intermediates are unsettled (fresh
            # reset, restored snapshot), so run the full dense walk.
            for layer in program.layers:
                for n, s, operands, widths, out_width in layer:
                    values[s] = semantics[n](
                        [values[r] for r in operands], widths, out_width
                    )
                self.stats.layers_evaluated += 1
                self.stats.ops_evaluated += len(layer)
            self._last_leaves = [values[slot] for slot in leaves]
            return

        last = self._last_leaves
        changed = [
            slot for index, slot in enumerate(leaves)
            if values[slot] != last[index]
        ]
        if not changed:
            self.stats.layers_skipped += program.num_layers
            self.stats.ops_skipped += program.num_records
            return

        pending = PendingLayers(program.num_layers, program.consumers)
        for slot in changed:
            pending.mark(slot)
        for layer_index, layer in enumerate(program.layers):
            queued = pending.pending(layer_index)
            if not queued:
                self.stats.layers_skipped += 1
                self.stats.ops_skipped += len(layer)
                continue
            for record_index in queued:
                n, s, operands, widths, out_width = layer[record_index]
                result = semantics[n](
                    [values[r] for r in operands], widths, out_width
                )
                if result != values[s]:
                    values[s] = result
                    pending.mark(s)
            self.stats.layers_evaluated += 1
            self.stats.ops_evaluated += len(queued)
            self.stats.ops_skipped += len(layer) - len(queued)
        self._last_leaves = [values[slot] for slot in leaves]

    def invalidate(self) -> None:
        """Forget the leaf snapshot: the next pass runs the full walk.

        Must be called whenever the value plane is replaced wholesale
        (reset, snapshot restore, state import) -- a fresh plane's
        intermediates are unsettled, so a leaf-only diff could wrongly
        skip them.
        """
        self._last_leaves = None

    def reset_activity(self) -> None:
        """Forget the snapshot *and* zero the counters."""
        self.invalidate()
        self.stats = ActivityStats()


def make_activity_aware(bundle: OimBundle, config: KernelConfig | str = "PSU") -> ActivityAwareKernel:
    """Convenience constructor mirroring :func:`make_kernel`."""
    return ActivityAwareKernel(bundle, config)
