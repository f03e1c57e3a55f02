"""Executable batched kernels: one OIM pass evaluates B lanes.

:class:`BatchWalkKernel` is the NumPy kernel: a vectorised RU/OU-style
map/reduce walk over the NumPy plane (:mod:`repro.batch.backend`).  It
traverses the shared program's dependence layers as the scalar
``RUKernel`` does, but every operand fetch pulls lane vectors and every
compute operator applies across all B lanes at once (the op table bound
to a NumPy target, :mod:`repro.batch.vecsem`) -- and across the S rank
too: same-op records of a layer whose operand and result widths all fit
64 bits are gathered into one ``(k, B)`` call of the single-row
evaluator.  Only genuinely wide operations take the carry-propagating
limb evaluators, so a design with a handful of 65-bit slots pays limb
arithmetic for exactly those slots, and a design with none (the ``u64``
plane: one limb per slot) pays none.  Every scalar configuration name
(``RU`` ... ``TI``) runs it: keeping the OIM in data and dispatching per
(layer, op) beats embedding it in generated NumPy statements at every
measured design and batch size.

:class:`BatchPyKernel` is the pure-Python list-of-lists fallback used
when NumPy is absent: the per-record walk, evaluated lane by lane with
the scalar semantics, so the subsystem is always importable and
bit-exact.

:class:`CompiledBatchKernel` (``kernel="compiled"``) swaps the NumPy
pass for the rolled C kernel of :mod:`repro.lower.cbackend`: one shared
object per host, whatever the design, walking the
:class:`KernelTables` built from the same shared
:class:`~repro.lower.program.OimProgram` as every kernel above -- the
layer-blocked schedule again, with the dispatch per (layer, op) in C
instead of NumPy.  It falls back to the walk kernel when no toolchain
(or no one-limb ``u64`` plane) is available.

No kernel here knows what an op means: every evaluator is the one op
table (:mod:`repro.graph.opsem`) bound to this backend's target, and
the C kernel spells it in the C data dialect.
"""

from __future__ import annotations

import ctypes
from typing import Callable, List

from ..graph.opsem import get_semantics
from ..kernels.config import KernelConfig, get_kernel_config
from ..kernels.fiberwalk import PendingLayers
from ..lower.cbackend import DATA_OPS, CBackendUnavailable, data_kernel
from ..lower.plan import data_blocks, limb_plan
from ..lower.plan import is_narrow as _is_narrow
from ..lower.program import cached_program
from ..oim.builder import OimBundle
from .backend import limb_layout, numpy_or_none, pick_backend
from .vecsem import make_limb_table, make_vec_table

#: Kernel styles (how the OIM pass is executed), orthogonal to backends.
WALK, PYTHON, ACTIVITY, COMPILED = "walk", "python", "activity", "compiled"


class BatchKernel:
    """Base class: evaluates one cycle of combinational logic over the
    batched value plane, for all lanes at once."""

    style: str = "abstract"

    def __init__(
        self, bundle: OimBundle, config: KernelConfig, lanes: int, backend: str
    ) -> None:
        self.bundle = bundle
        self.config = config
        self.lanes = lanes
        self.backend = backend

    def eval_comb(self, values) -> None:
        raise NotImplementedError

    def invalidate(self) -> None:
        """Drop any cached view of the value plane (see
        :meth:`repro.kernels.pykernels.Kernel.invalidate`).  Stateless
        kernels ignore it; the activity kernel forgets its leaf snapshot
        so the next pass re-settles the whole plane."""

    @property
    def name(self) -> str:
        return f"{self.config.name}x{self.lanes}[{self.backend}]"


def _record_binder(bundle: OimBundle, layout=None) -> Callable:
    """How a walk row ``(n, s, operands, widths, ow)`` becomes the record
    ``(fn, out address, operand addresses, widths, ow)`` on one plane.

    With no ``layout`` the plane is the list-of-lists one: scalar
    semantics over slots.  On the NumPy plane (``layout`` is its
    :func:`limb_layout`) a narrow row runs the single-row evaluators over
    limb-row offsets and a wide row the limb evaluators over limb-row
    slices.
    """
    entry_of = bundle.op_table.entry
    if layout is None:
        return lambda n, s, rs, ws, ow: (entry_of(n).semantics, s, rs, ws, ow)
    np = numpy_or_none()
    narrow, wide = make_vec_table(np), make_limb_table(np)

    def bind(n, s, rs, ws, ow):
        table, where = (
            (narrow, layout.offsets) if _is_narrow(ws, ow) else (wide, layout.slices)
        )
        return table[entry_of(n).name], where[s], tuple(where[r] for r in rs), ws, ow

    return bind


# ----------------------------------------------------------------------
# Layer-blocked narrow groups
# ----------------------------------------------------------------------
def _blocked_step(np, fn: Callable, group: List, offsets) -> Callable:
    """One evaluation of ``fn`` for ``k`` same-op narrow records of one
    layer (``offsets`` maps slots to plane rows, as an index array).

    Layers are dependence levels (operands always live in earlier
    layers), so same-layer records are independent: gather their operand
    rows into ``(k, B)`` blocks, apply the op's single-row evaluator once
    with the per-record widths broadcast as ``(k, 1)`` columns, and
    scatter to the output rows.  This turns the walk's per-record NumPy
    dispatch into per-(layer, op) dispatch -- the S rank vectorised
    alongside the lane rank.
    """
    _, outs, operands, widths, out_widths = zip(*group)

    def column(values):
        return np.array(values, dtype=np.uint64)[:, None]

    # Per operand position: k plane rows, and a (k, 1) width column.
    out = offsets[list(outs)]
    sources = [offsets[list(position)] for position in zip(*operands)]
    widths = [column(position) for position in zip(*widths)]
    # A ready-made index: the mask lookup in ``fit`` then needs no cast.
    out_width = np.array(out_widths, dtype=np.intp)[:, None]

    def step(V):
        V[out] = fn([V[source] for source in sources], widths, out_width)

    return step


class BatchWalkKernel(BatchKernel):
    """Vectorised RU-style map/reduce walk over the NumPy plane."""

    style = WALK

    def __init__(
        self, bundle: OimBundle, config: KernelConfig, lanes: int, backend: str
    ) -> None:
        super().__init__(bundle, config, lanes, backend)
        self.layout = limb_layout(bundle)
        self._steps = self._limb_steps(bundle, self.layout)

    @staticmethod
    def _limb_steps(bundle: OimBundle, layout) -> List[Callable]:
        """The layer-blocked schedule over the flat limb-row plane.

        Per layer, in execution order: narrow records group per (layer,
        op) into one gathered ``(k, B)`` evaluation
        (:func:`_blocked_step`); the rest run one by one
        (:func:`_record_binder`).  Reordering within a layer is safe --
        layers are dependence levels.  The schedule is rebuilt from the
        declarative plan (:func:`repro.lower.plan.limb_plan`) over the
        cached shared program: the lowering sweep persists as the
        ``program`` artifact, the cheap grouping sweep re-derives from it,
        and only the closures are per-process.
        """
        np = numpy_or_none()
        offsets = np.array(layout.offsets, dtype=np.intp)
        bind = _record_binder(bundle, layout)

        def record_step(fn, s, operands, widths, out_width):
            def step(V):
                V[s] = fn([V[r] for r in operands], widths, out_width)

            return step

        steps: List[Callable] = []
        for kind, _name, rows in limb_plan(cached_program(bundle)):
            if kind == "block":
                steps.append(_blocked_step(np, bind(*rows[0])[0], rows, offsets))
            else:
                steps.append(record_step(*bind(*rows[0])))
        return steps

    def eval_comb(self, values) -> None:
        for step in self._steps:
            step(values)


class BatchPyKernel(BatchKernel):
    """Pure-Python fallback: the per-record walk, scalar semantics lane
    by lane."""

    style = PYTHON

    def __init__(
        self, bundle: OimBundle, config: KernelConfig, lanes: int, backend: str
    ) -> None:
        super().__init__(bundle, config, lanes, backend)
        bind = _record_binder(bundle)
        self._schedule = [bind(*row) for row in cached_program(bundle).records()]

    def eval_comb(self, values) -> None:
        lanes = range(self.lanes)
        for fn, s, operands, widths, out_width in self._schedule:
            rows = [values[r] for r in operands]
            values[s] = [
                fn([row[lane] for row in rows], widths, out_width)
                for lane in lanes
            ]


class BatchActivityKernel(BatchKernel):
    """Box 1's activity cascade, batched: fiber-driven walk + lane
    compaction.

    Walks the same shared :class:`~repro.lower.program.OimProgram` as
    the scalar activity kernel: the per-cycle leaf diff (inputs +
    register state, compared block-wise across all lanes) seeds a
    toggled-slot fiber, and only the records downstream of it
    re-evaluate.  On top of that, the *lane* rank is sparsified too:
    lanes whose leaves are all unchanged already hold their settled
    values, so the walk gathers the active lanes into a dense sub-plane
    of B' < B columns, runs at effective batch B', and scatters back --
    lifting the old "lanes diverge in activity" restriction at any B.

    Cold passes (construction, reset, restore, state import -- anything
    that calls :meth:`invalidate`) delegate to the plain walk kernel, so
    they keep its blocked/limb fast paths.  Works on every backend,
    including the pure-Python fallback (where compaction is an active-
    lane loop), so activity-aware batching needs no NumPy.
    """

    style = ACTIVITY

    def __init__(
        self, bundle: OimBundle, config: KernelConfig, lanes: int, backend: str
    ) -> None:
        super().__init__(bundle, config, lanes, backend)
        from ..kernels.activity import ActivityStats

        self.stats = ActivityStats()
        self.program = cached_program(bundle)
        leaves = self.program.leaf_slots
        if backend == "python":
            self._inner = BatchPyKernel(bundle, config, lanes, backend)
            self._np = self.layout = None
            self._leaf_rows = leaves
        else:
            self._inner = BatchWalkKernel(bundle, config, lanes, backend)
            self._np = np = numpy_or_none()
            self.layout = self._inner.layout
            #: Plane rows holding the leaves, and each row's source slot
            #: (a wide leaf spans several limb rows).
            self._leaf_rows = np.array(self.layout.rows_of(leaves), dtype=np.intp)
            self._leaf_row_slot = tuple(
                slot for slot in leaves for _ in range(self.layout.limbs[slot])
            )
        #: Per-layer ``(fn, s_addr, operand_addrs, widths, ow, slot)``
        #: evaluators; ``slot`` is the program-space coordinate used for
        #: consumer marking.
        bind = _record_binder(bundle, self.layout)
        self._record_fns = [
            [(*bind(*row), row[1]) for row in layer]
            for layer in self.program.layers
        ]
        #: Leaf block from the last pass (None = cold: full walk next).
        self._last = None

    @property
    def name(self) -> str:
        return f"activity:{self.config.name}x{self.lanes}[{self.backend}]"

    def invalidate(self) -> None:
        self._last = None

    def reset_activity(self) -> None:
        """Forget the leaf snapshot *and* zero the counters."""
        from ..kernels.activity import ActivityStats

        self.invalidate()
        self.stats = ActivityStats()

    # ------------------------------------------------------------------
    def _leaf_block(self, values):
        if self.backend == "python":
            return [list(values[slot]) for slot in self._leaf_rows]
        return values[self._leaf_rows]  # fancy index: already a copy

    # ------------------------------------------------------------------
    def eval_comb(self, values) -> None:
        self.stats.cycles += 1
        if self._last is None:
            # Cold pass: unsettled intermediates, run the dense walk.
            self._inner.eval_comb(values)
            self.stats.layers_evaluated += self.program.num_layers
            self.stats.ops_evaluated += self.program.num_records
            self.stats.lanes_active += self.lanes
            self._last = self._leaf_block(values)
            return
        if self.backend == "python":
            self._eval_python(values)
        else:
            self._eval_numpy(values)

    def _eval_numpy(self, values) -> None:
        np = self._np
        program = self.program
        current = values[self._leaf_rows]
        diff = current != self._last
        lane_mask = diff.any(axis=0)
        active = np.flatnonzero(lane_mask)
        if active.size == 0:
            self.stats.layers_skipped += program.num_layers
            self.stats.ops_skipped += program.num_records
            self.stats.lanes_skipped += self.lanes
            return
        self.stats.lanes_active += int(active.size)
        self.stats.lanes_skipped += self.lanes - int(active.size)
        changed_slots = {
            self._leaf_row_slot[int(i)]
            for i in np.flatnonzero(diff.any(axis=1))
        }

        # Lane compaction: gather active columns into a dense B' plane.
        compact = int(active.size) < self.lanes
        plane = values[:, active] if compact else values

        pending = PendingLayers(program.num_layers, program.consumers)
        for slot in changed_slots:
            pending.mark(slot)
        for layer_index, layer in enumerate(self._record_fns):
            queued = pending.pending(layer_index)
            if not queued:
                self.stats.layers_skipped += 1
                self.stats.ops_skipped += len(layer)
                continue
            for record_index in queued:
                fn, s, operands, widths, ow, slot = layer[record_index]
                new = fn([plane[r] for r in operands], widths, ow)
                if (new != plane[s]).any():
                    plane[s] = new
                    pending.mark(slot)
            self.stats.layers_evaluated += 1
            self.stats.ops_evaluated += len(queued)
            self.stats.ops_skipped += len(layer) - len(queued)

        if compact:
            values[:, active] = plane
        self._last = self._leaf_block(values)

    def _eval_python(self, values) -> None:
        program = self.program
        last = self._last
        lanes = self.lanes
        changed_slots = set()
        lane_active = [False] * lanes
        for index, slot in enumerate(self._leaf_rows):
            row, prev = values[slot], last[index]
            if row == prev:
                continue
            changed_slots.add(slot)
            for lane in range(lanes):
                if row[lane] != prev[lane]:
                    lane_active[lane] = True
        if not changed_slots:
            self.stats.layers_skipped += program.num_layers
            self.stats.ops_skipped += program.num_records
            self.stats.lanes_skipped += lanes
            return
        # Compaction without NumPy: the walk loops over active lanes only.
        active = [lane for lane in range(lanes) if lane_active[lane]]
        self.stats.lanes_active += len(active)
        self.stats.lanes_skipped += lanes - len(active)

        pending = PendingLayers(program.num_layers, program.consumers)
        for slot in changed_slots:
            pending.mark(slot)
        for layer_index, layer in enumerate(self._record_fns):
            queued = pending.pending(layer_index)
            if not queued:
                self.stats.layers_skipped += 1
                self.stats.ops_skipped += len(layer)
                continue
            for record_index in queued:
                fn, s, operands, widths, ow, slot = layer[record_index]
                out_row = values[s]
                rows = [values[r] for r in operands]
                record_changed = False
                for lane in active:
                    new = fn([row[lane] for row in rows], widths, ow)
                    if new != out_row[lane]:
                        out_row[lane] = new
                        record_changed = True
                if record_changed:
                    pending.mark(slot)
            self.stats.layers_evaluated += 1
            self.stats.ops_evaluated += len(queued)
            self.stats.ops_skipped += len(layer) - len(queued)
        self._last = self._leaf_block(values)


class KernelTables:
    """The rolled C kernel's tables for one schedule of ``(op name,
    rows)`` blocks (:func:`repro.lower.plan.data_blocks`) over a plane
    of ``shape`` ``(num_slots, lanes)``: per block ``(op id, row start,
    count)``; per row its out slot, operand widths ``w0``/``w1``, output
    width ``ow`` and output mask ``m``; and every row's operand slots,
    in order (the op fixes how many).  Constants stay in the plane.

    Building checks what the kernel relies on: an op's arity, every slot
    inside the plane, and no row reading an output of its own block (its
    own included) -- rows of a block run one after the other, and each
    writes through a ``restrict`` pointer.  Calling the tables runs the
    schedule on ``comb``'s ``repro_run_blocks`` over a plane, which
    must be exactly the uint64 plane they were built for.
    """

    def __init__(self, comb, blocks, shape) -> None:
        np = numpy_or_none()
        ids = {name: k for k, name in enumerate(DATA_OPS)}
        table, outs, args, w0, w1, ow = [], [], [], [], [], []
        for name, rows in blocks:
            arity = get_semantics(name).arity
            table += (ids[name], len(outs), len(rows))
            written = {row[1] for row in rows}
            for _n, s, operands, widths, out_width in rows:
                if len(operands) != arity or not written.isdisjoint(operands):
                    raise ValueError(f"{name} row {s}{operands}: bad arity or an "
                                     "operand written in its own block")
                outs.append(s)
                args.extend(operands)
                w0.append(widths[0])
                w1.append(widths[1] if arity > 1 else 0)
                ow.append(out_width)
        if not all(0 <= slot < shape[0] for slot in (*outs, *args)):
            raise ValueError(f"a slot index outside the {shape[0]}-slot plane")
        self._arrays = [
            np.array(values, dtype=np.int32)
            for values in (table, outs, args, w0, w1, ow)
        ] + [np.array([(1 << w) - 1 for w in ow], dtype=np.uint64)]
        self._pointers = tuple(array.ctypes.data for array in self._arrays)
        self._blocks = len(blocks)
        self._uint64 = np.uint64
        self.shape = tuple(shape)
        self._fn = comb.library.repro_run_blocks
        self._fn.argtypes = (
            [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
            + [ctypes.c_void_p] * 6
        )
        self._fn.restype = None

    def __call__(self, plane) -> None:
        if (plane.dtype != self._uint64 or not plane.flags.c_contiguous
                or plane.shape != self.shape):
            raise ValueError(
                f"the compiled kernel needs a C-contiguous uint64 plane of shape "
                f"{self.shape}; got {plane.dtype} {plane.shape}"
            )
        blocks, *tables = self._pointers
        self._fn(plane.ctypes.data, self.shape[1], blocks, self._blocks, *tables)


class CompiledBatchKernel(BatchKernel):
    """The compiled C pass (``kernel="compiled"``): one call of the
    rolled kernel walks the design's :class:`KernelTables` for every
    lane.

    Source, compilation and the ``cbin`` artifact cache live in
    :mod:`repro.lower.cbackend` -- one shared object per host serves
    every design -- so this class only builds the tables.  Needs the
    one-limb ``u64`` plane (slot rows are the C kernel's address space)
    -- the factory falls back to the walk kernel on other backends or
    when no toolchain is available.
    """

    style = COMPILED

    def __init__(
        self, bundle: OimBundle, config: KernelConfig, lanes: int, backend: str
    ) -> None:
        if backend != "u64":
            raise CBackendUnavailable(
                f"the compiled kernel needs the native 'u64' plane; got {backend!r}"
            )
        super().__init__(bundle, config, lanes, backend)
        self._comb = data_kernel()
        program = cached_program(bundle)
        self._tables = KernelTables(
            self._comb, data_blocks(program), (program.num_slots, lanes)
        )

    @property
    def name(self) -> str:
        return f"compiledx{self.lanes}[{self.backend}]"

    def eval_comb(self, values) -> None:
        self._tables(values)


def make_batch_kernel(
    bundle: OimBundle,
    config: KernelConfig | str,
    lanes: int,
    backend: str = "auto",
) -> BatchKernel:
    """Instantiate the batched kernel for a configuration and backend.

    Every scalar configuration name (``RU`` ... ``TI``) runs the walk:
    :class:`BatchWalkKernel` on the NumPy plane, :class:`BatchPyKernel`
    on ``python``; the name only labels the kernel.

    ``backend`` is resolved via :func:`repro.batch.backend.pick_backend`;
    without NumPy every request transparently degrades to the
    pure-Python walk (a missing NumPy is a property of the environment,
    not a user error).

    ``"activity"`` (or ``"activity:PSU"`` etc.) selects the batched
    activity cascade (:class:`BatchActivityKernel`) around the named
    base configuration -- on any backend, including the pure-Python
    fallback when NumPy is absent.

    ``"compiled"`` selects the compiled C pass
    (:class:`CompiledBatchKernel`).  When the design needs more than the
    one-limb ``u64`` plane or no C toolchain (and no cached shared
    object) is available, the factory degrades to the walk kernel and
    records why on the returned kernel's ``compiled_fallback``
    attribute: like a missing NumPy, a missing compiler is a property of
    the environment, not a user error.
    """
    activity = False
    compiled = False
    if isinstance(config, str):
        name = config.strip().lower()
        if name.startswith("activity"):
            _, _, base = name.partition(":")
            config = get_kernel_config(base or "PSU")
            activity = True
        elif name == "compiled":
            config = get_kernel_config("SU")
            compiled = True
        else:
            config = get_kernel_config(config)
    backend = pick_backend(bundle, backend)
    if compiled:
        try:
            return CompiledBatchKernel(bundle, config, lanes, backend)
        except CBackendUnavailable as reason:
            kernel = _dispatch_kernel(
                bundle, get_kernel_config("PSU"), lanes, backend, activity
            )
            kernel.compiled_fallback = str(reason)
            return kernel
    return _dispatch_kernel(bundle, config, lanes, backend, activity)


def _dispatch_kernel(
    bundle: OimBundle,
    config: KernelConfig,
    lanes: int,
    backend: str,
    activity: bool,
) -> BatchKernel:
    if activity:
        return BatchActivityKernel(bundle, config, lanes, backend)
    if backend == "python":
        return BatchPyKernel(bundle, config, lanes, backend)
    return BatchWalkKernel(bundle, config, lanes, backend)
