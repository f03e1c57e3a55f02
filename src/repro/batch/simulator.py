"""The batched full-cycle simulator: B independent lanes, one OIM pass.

:class:`BatchSimulator` keeps the scalar :class:`repro.sim.Simulator`
surface -- ``poke`` / ``peek`` / ``step`` / ``reset`` / ``step_domain`` /
``snapshot`` -- but every slot holds a vector of B lanes.  Lanes are
fully independent simulations (distinct stimulus, shared design), which
is the tensor-algebra view of multi-seed regression and design-space
sweeps: the lane rank rides along every Einsum for free.

Register commit reuses the scalar simulator's per-clock-domain grouping
(Section 6.2) and is two-phase, so register-to-register moves stay
hardware-accurate in every lane: on the NumPy plane one gather of every
next-state row followed by one scatter to the state rows, over row-index
arrays built once per clock domain; on ``python`` a staged list copy.

Storage is backend-native (:mod:`repro.batch.backend`): ``ceil(width/64)``
uint64 limb rows per slot on the NumPy plane (``u64`` is the case where
that is one row for every slot, ``u64xN`` the case where it is not), one
list row per slot on ``python`` -- the host surface (ints in, ints out)
is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..firrtl.primops import mask
from ..kernels.config import KernelConfig
from ..sim.simulator import DesignLike, compile_design, group_commits_by_clock
from .backend import (
    alloc_values,
    copy_values,
    limb_layout,
    numpy_or_none,
    pick_backend,
    plane_rows,
    read_slot,
    write_slot,
)
from .kernels import BatchKernel, make_batch_kernel

LaneValues = Union[int, Sequence[int]]


@dataclass
class BatchSnapshot:
    """A cheap checkpoint of the batched value plane (see ``snapshot``).

    Backend-native (a NumPy plane or list-of-lists): restorable only onto
    a simulator with the same backend and plane shape.  Use
    ``export_state`` for a portable checkpoint.
    """

    values: object
    cycle: int
    backend: str = ""


class BatchSimulator:
    """Full-cycle RTL simulation of B lanes through one batched kernel.

    Parameters
    ----------
    design:
        Anything :func:`repro.sim.simulator.compile_design` accepts.
    lanes:
        Number of independent stimulus lanes (B).
    kernel:
        Scalar kernel configuration name or :class:`KernelConfig`;
        every one (RU...TI) runs the vectorised walk kernel, and
        ``"compiled"`` the compiled C pass.  ``"activity"`` (or
        ``"activity:PSU"`` etc.) selects the batched activity cascade:
        a fiber-driven walk with per-lane activity masks and lane
        compaction, valid at any B and on every backend -- without
        NumPy it rides the pure-Python lane fallback rather than
        failing (skip rates observable via :attr:`activity_stats`).
    backend:
        ``"auto"`` (default), ``"u64"``, ``"u64xN"`` or ``"python"``;
        see :mod:`repro.batch.backend`.
    """

    def __init__(
        self,
        design: DesignLike,
        lanes: int = 8,
        kernel: Union[str, KernelConfig] = "PSU",
        backend: str = "auto",
        optimize_graph: bool = True,
        preserve_signals: bool = False,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.bundle = compile_design(design, optimize_graph, preserve_signals)
        self.lanes = lanes
        self.backend = pick_backend(self.bundle, backend)
        self.layout = None if self.backend == "python" else limb_layout(self.bundle)
        self.kernel: BatchKernel = make_batch_kernel(
            self.bundle, kernel, lanes, self.backend
        )
        self.values = alloc_values(self.bundle, lanes, self.backend, self.layout)
        self.cycle = 0
        self._dirty = True
        #: What :meth:`_commit` moves: for every domain at once
        #: (:meth:`step`) and per clock domain (:meth:`step_domain`).
        self._all_commits = self._commit_table(self.bundle.register_commits)
        self._commits_by_clock = {
            clock: self._commit_table(commits)
            for clock, commits in group_commits_by_clock(self.bundle).items()
        }
        self._poked: set = set()

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def poke(self, name: str, value: LaneValues) -> None:
        """Drive an input: a scalar broadcasts, a sequence is per-lane."""
        slot = self.bundle.input_slots.get(name)
        if slot is None:
            raise KeyError(f"{name!r} is not an input of {self.bundle.design_name}")
        width = self.bundle.slot_width[slot]
        if isinstance(value, int):
            lane_values = [mask(value, width)] * self.lanes
        else:
            lane_values = [mask(int(v), width) for v in value]
            if len(lane_values) != self.lanes:
                raise ValueError(
                    f"poke({name!r}) got {len(lane_values)} values for "
                    f"{self.lanes} lanes"
                )
        write_slot(self.values, slot, lane_values, self.backend, self.layout)
        self._poked.add(name)
        self._dirty = True

    def poke_lane(self, name: str, lane: int, value: int) -> None:
        """Drive an input in a single lane; the other lanes keep their
        current values (the lane-targeted testbench stimulus path)."""
        slot = self.bundle.input_slots.get(name)
        if slot is None:
            raise KeyError(f"{name!r} is not an input of {self.bundle.design_name}")
        if not 0 <= lane < self.lanes:
            raise IndexError(
                f"poke_lane({name!r}): lane {lane} out of range for "
                f"{self.lanes} lanes"
            )
        lane_values = read_slot(self.values, slot, self.backend, self.layout)
        lane_values[lane] = mask(int(value), self.bundle.slot_width[slot])
        write_slot(self.values, slot, lane_values, self.backend, self.layout)
        self._poked.add(name)
        self._dirty = True

    def peek(self, name: str) -> List[int]:
        """All B lanes of a signal, as plain Python ints."""
        slot = self.bundle.signal_slots.get(name)
        if slot is None:
            raise KeyError(
                f"unknown signal {name!r}; it may have been optimised away "
                "(construct the BatchSimulator with preserve_signals=True)"
            )
        self._settle()
        return read_slot(self.values, slot, self.backend, self.layout)

    def peek_lane(self, name: str, lane: int) -> int:
        """One lane of a signal."""
        return self.peek(name)[lane]

    def peek_slot(self, slot: int) -> List[int]:
        self._settle()
        return read_slot(self.values, slot, self.backend, self.layout)

    # ------------------------------------------------------------------
    # Raw lane-row access (the sharded RUM exchange path)
    # ------------------------------------------------------------------
    def peek_row(self, name: str, settle: bool = True) -> List[int]:
        """One signal's lane vector, optionally without settling.

        ``settle=False`` is only valid for slots whose value does not
        depend on the pending combinational pass -- register state and
        input slots.  The sharded simulator reads owned registers right
        after the commit with it, which keeps the per-cycle exchange from
        paying a second full ``eval_comb``.
        """
        slot = self.bundle.signal_slots.get(name)
        if slot is None:
            raise KeyError(
                f"unknown signal {name!r} on {self.bundle.design_name}"
            )
        if settle:
            self._settle()
        return read_slot(self.values, slot, self.backend, self.layout)

    def poke_row(self, name: str, lane_values: Sequence[int]) -> None:
        """Refresh an input slot with an already-masked lane vector.

        The replica-refresh half of the RUM exchange: a replica input
        mirrors a register of identical width in another partition, so
        per-lane *masking* is skipped -- but the vector is still
        validated, because an over-width or negative value would silently
        corrupt a fixed-width plane (uint64 rows wrap; limb rows drop the
        overflow) in ways ``poke`` would have masked away.
        """
        slot = self.bundle.input_slots.get(name)
        if slot is None:
            raise KeyError(f"{name!r} is not an input of {self.bundle.design_name}")
        if len(lane_values) != self.lanes:
            raise ValueError(
                f"poke_row({name!r}) got {len(lane_values)} values for "
                f"{self.lanes} lanes"
            )
        width = self.bundle.slot_width[slot]
        for lane, value in enumerate(lane_values):
            if value < 0 or (value >> width):
                raise ValueError(
                    f"poke_row({name!r}) lane {lane} value {value} does not "
                    f"fit the slot's {width} bits; use poke() for unmasked "
                    "values"
                )
        write_slot(self.values, slot, lane_values, self.backend, self.layout)
        self._poked.add(name)
        self._dirty = True

    def adopt_row(self, name: str, lane_values) -> None:
        """Refresh an input slot from an already-valid lane row, without
        the per-lane width validation of :meth:`poke_row`.

        The zero-copy half of the shared-memory RUM exchange: the row
        comes straight out of another partition's value plane, where it
        was already width-correct by construction, and re-validating
        element-wise would force a NumPy row back through Python ints.
        Only use with rows read from a plane of the same width.
        """
        slot = self.bundle.input_slots.get(name)
        if slot is None:
            raise KeyError(f"{name!r} is not an input of {self.bundle.design_name}")
        write_slot(self.values, slot, lane_values, self.backend, self.layout)
        self._poked.add(name)
        self._dirty = True

    def reset(self) -> None:
        """Restore registers and constants to their initial values in every
        lane; poked input values are preserved per lane (scalar parity)."""
        inputs = {
            name: read_slot(self.values, slot, self.backend, self.layout)
            for name, slot in self.bundle.input_slots.items()
        }
        self.values = alloc_values(self.bundle, self.lanes, self.backend, self.layout)
        for name, lane_values in inputs.items():
            write_slot(
                self.values, self.bundle.input_slots[name], lane_values,
                self.backend, self.layout,
            )
        self.cycle = 0
        self._dirty = True
        # Fresh plane, unsettled intermediates: an activity kernel must
        # not diff leaves against the pre-reset world.
        self.kernel.invalidate()

    def step(self, cycles: int = 1) -> None:
        """Advance all clock domains of all lanes by ``cycles`` edges."""
        for _ in range(cycles):
            self._settle()
            self._commit(self._all_commits)
            self.cycle += 1
            self._dirty = True

    def step_domain(self, clock: str) -> None:
        """Advance a single clock domain by one edge (Section 6.2)."""
        commits = self._commits_by_clock.get(clock)
        if commits is None:
            raise KeyError(
                f"unknown clock domain {clock!r}; domains: "
                f"{sorted(self._commits_by_clock)}"
            )
        self._settle()
        self._commit(commits)
        self.cycle += 1
        self._dirty = True

    def run(self, cycles: int) -> None:
        """Alias for :meth:`step`, for testbench readability."""
        self.step(cycles)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> BatchSnapshot:
        """Checkpoint the value plane + cycle (copy; O(rows * lanes))."""
        self._settle()
        return BatchSnapshot(
            copy_values(self.values, self.backend), self.cycle, self.backend
        )

    def restore(self, snapshot: BatchSnapshot) -> None:
        """Return to a :meth:`snapshot` checkpoint (same backend/shape)."""
        if snapshot.backend and snapshot.backend != self.backend:
            raise ValueError(
                f"snapshot uses the {snapshot.backend!r} backend, this "
                f"simulator uses {self.backend!r}"
            )
        values = snapshot.values
        expected = plane_rows(self.bundle, self.backend, self.layout)
        if len(values) != expected:
            raise ValueError(
                f"snapshot has {len(values)} plane rows, design "
                f"{self.bundle.design_name!r} needs {expected}"
            )
        if len(values) and len(values[0]) != self.lanes:
            raise ValueError(
                f"snapshot has {len(values[0])} lanes, simulator has "
                f"{self.lanes}"
            )
        self.values = copy_values(values, self.backend)
        self.cycle = snapshot.cycle
        self._dirty = True
        self.kernel.invalidate()

    def export_state(self) -> Tuple[List[List[int]], int]:
        """The value plane as per-slot lane vectors of Python ints, plus
        the cycle count.

        Unlike :class:`BatchSnapshot` (backend-native, cheap, same
        process), the exported form is portable: plain int lists cross
        process boundaries -- and slot-indexed ints are backend-agnostic,
        so a ``u64xN`` worker can hand its state to a ``python`` peer --
        which is how the sharded process executor checkpoints workers.
        """
        self._settle()
        return [
            read_slot(self.values, slot, self.backend, self.layout)
            for slot in range(self.bundle.num_slots)
        ], self.cycle

    def import_state(self, rows: List[List[int]], cycle: int) -> None:
        """Load a plane previously produced by :meth:`export_state`."""
        if len(rows) != self.bundle.num_slots:
            raise ValueError(
                f"state has {len(rows)} slots, design has "
                f"{self.bundle.num_slots}"
            )
        for slot, row in enumerate(rows):
            write_slot(self.values, slot, row, self.backend, self.layout)
        self.cycle = cycle
        self._dirty = True
        self.kernel.invalidate()

    # ------------------------------------------------------------------
    # Per-lane state transfer (the repro.serve session checkout path)
    # ------------------------------------------------------------------
    def export_lane(self, lane: int) -> List[int]:
        """One lane's column of the value plane, as per-slot Python ints.

        Portable like :meth:`export_state` (plain ints, backend-
        agnostic), but a single lane: the unit of session preemption and
        migration in :mod:`repro.serve` -- a checked-out lane's state
        moves to any simulator of the same design, regardless of which
        lane (or backend) it lands on there.
        """
        self._check_lane(lane)
        self._settle()
        return [
            read_slot(self.values, slot, self.backend, self.layout)[lane]
            for slot in range(self.bundle.num_slots)
        ]

    def import_lane(self, lane: int, values: Sequence[int]) -> None:
        """Load one lane from :meth:`export_lane` output; the other lanes
        are untouched.  Values must already fit their slots (they do, if
        they came from ``export_lane``)."""
        self._check_lane(lane)
        if len(values) != self.bundle.num_slots:
            raise ValueError(
                f"lane state has {len(values)} slots, design has "
                f"{self.bundle.num_slots}"
            )
        widths = self.bundle.slot_width
        for slot, value in enumerate(values):
            if value < 0 or (value >> widths[slot]):
                raise ValueError(
                    f"import_lane: slot {slot} value {value} does not fit "
                    f"{widths[slot]} bits"
                )
        for slot, value in enumerate(values):
            row = read_slot(self.values, slot, self.backend, self.layout)
            row[lane] = value
            write_slot(self.values, slot, row, self.backend, self.layout)
        self._dirty = True
        # The imported lane carries foreign intermediates; re-settle all.
        self.kernel.invalidate()

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.lanes:
            raise IndexError(
                f"lane {lane} out of range for {self.lanes} lanes"
            )

    # ------------------------------------------------------------------
    @property
    def activity_stats(self):
        """The kernel's :class:`~repro.kernels.activity.ActivityStats`
        (layer/op skip rates plus lane-compaction counters), or ``None``
        for a plain kernel -- the uniform stats surface shared with the
        scalar/shard/serve engines."""
        return getattr(self.kernel, "stats", None)

    @property
    def clock_domains(self) -> List[str]:
        return sorted(self._commits_by_clock)

    @property
    def signals(self) -> List[str]:
        return sorted(self.bundle.signal_slots)

    @property
    def signal_widths(self) -> Dict[str, int]:
        """``{signal: width}`` of every observable signal (waveforms)."""
        return {
            name: self.bundle.slot_width[slot]
            for name, slot in self.bundle.signal_slots.items()
        }

    @property
    def unpoked_inputs(self) -> set:
        """Inputs never driven (any lane) since construction; dumped as
        ``x`` by :class:`~repro.sim.VcdWriter` before the first edge."""
        return set(self.bundle.input_slots) - self._poked

    def _settle(self) -> None:
        if not self._dirty:
            return
        self.kernel.eval_comb(self.values)
        self._dirty = False

    def _commit_table(self, commits: Iterable[Tuple[int, int]]):
        """The ``(state, next)`` slot pairs themselves on ``python``; on
        the NumPy plane their ``(state_rows, next_rows)`` row-index
        arrays, one row pair per limb of each register."""
        if self.backend == "python":
            return list(commits)
        np, rows_of = numpy_or_none(), self.layout.rows_of
        return (
            np.array(rows_of([state for state, _ in commits]), dtype=np.intp),
            np.array(rows_of([next_slot for _, next_slot in commits]), dtype=np.intp),
        )

    def _commit(self, table) -> None:
        values = self.values
        if self.backend == "python":
            staged = [(state, list(values[next_slot])) for state, next_slot in table]
            for state, lane_values in staged:
                values[state][:] = lane_values
        else:
            # Two-phase: the gather completes before the scatter starts.
            state_rows, next_rows = table
            values[state_rows] = values[next_rows]

    def __repr__(self) -> str:
        return (
            f"BatchSimulator({self.bundle.design_name!r}, lanes={self.lanes}, "
            f"kernel={self.kernel.name}, cycle={self.cycle})"
        )
