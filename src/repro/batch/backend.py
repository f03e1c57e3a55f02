"""Storage backends for the batched value plane.

The batched simulator widens the paper's value tensor ``V`` (the
identity-elided ``LI``/``LO``: one persistent slot per value) by a lane
rank ``B``.  Two planes realise it, under three backend names:

* the NumPy plane -- each slot stores ``ceil(width/64)`` little-endian
  uint64 *limb rows* in a flat ``(total_limb_rows, B)`` array (see
  :class:`LimbLayout`).  An operation whose operands and result all fit
  64 bits runs on single rows (wrap-around modulo 2**64 followed by the
  slot-width mask is bit-exact for add/sub/mul, and shifts are guarded);
  a wider one propagates carries across limbs and moves bits across limb
  boundaries (:func:`repro.batch.vecsem.limb_target`).  The backend name
  says what shape the plane has, not which code runs: ``u64`` is the
  one-limb case -- every slot fits 64 bits, so the layout is the
  identity and the plane is ``(num_slots, B)``, which is what the
  compiled C kernel and the shared-memory exchange planes address --
  and ``u64xN`` is a plane with at least one multi-limb slot (or any
  plane, on request);
* ``python`` -- plain list-of-lists, used when NumPy is absent so the
  subsystem never breaks in an offline environment.

NumPy is an *optional* dependency (the ``[batch]`` extra): everything in
``repro.batch`` imports cleanly without it and falls back to ``python``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence

from ..graph.opsem import NATIVE, RELATIONS, Target
from ..oim.builder import OimBundle

#: Widest slot the single-row uint64 backend can hold exactly; also the
#: limb granularity of the split-limb backend.
U64_MAX_WIDTH = 64
LIMB_BITS = 64
LIMB_MASK = (1 << LIMB_BITS) - 1

BACKENDS = ("u64", "u64xN", "python")

_UNSET = object()


def numpy_or_none():
    """The :mod:`numpy` module, or ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised via pick_backend(np_module=None)
        return None
    return numpy


_NUMPY = numpy_or_none()

HAS_NUMPY = _NUMPY is not None


def supports_u64(bundle: OimBundle) -> bool:
    """True when every slot of ``bundle`` fits the uint64 fast path."""
    return max(bundle.slot_width, default=0) <= U64_MAX_WIDTH


def pick_backend(
    bundle: OimBundle, requested: str = "auto", np_module=_UNSET
) -> str:
    """Resolve a backend request against NumPy availability and slot widths.

    ``auto`` reports ``u64`` for a design whose slots all fit 64 bits,
    ``u64xN`` for one with wider slots, and degrades to ``python`` when
    NumPy is missing.  Explicitly requesting ``u64`` on a too-wide design
    or a NumPy backend without NumPy raises, so tests and benchmarks never
    silently measure the wrong engine.
    """
    np = _NUMPY if np_module is _UNSET else np_module
    if requested in ("auto", "numpy"):
        if np is None:
            return "python"
        return "u64" if supports_u64(bundle) else "u64xN"
    if requested not in BACKENDS:
        raise KeyError(
            f"unknown batch backend {requested!r}; choose from "
            f"{', '.join(BACKENDS)} or 'auto'"
        )
    if requested == "python":
        return "python"
    if np is None:
        raise RuntimeError(
            f"batch backend {requested!r} needs NumPy, which is not "
            "installed; use backend='auto' or the [batch] extra"
        )
    if requested == "u64" and not supports_u64(bundle):
        raise ValueError(
            f"design {bundle.design_name!r} has slots wider than "
            f"{U64_MAX_WIDTH} bits; use backend='u64xN' (or 'auto')"
        )
    return requested


# ----------------------------------------------------------------------
# Split-limb layout
# ----------------------------------------------------------------------
def limbs_for_width(width: int) -> int:
    """Limb rows a slot of ``width`` bits occupies (zero-width slots
    still get one row so every slot is addressable)."""
    return max(1, (width + LIMB_BITS - 1) // LIMB_BITS)


@dataclass
class LimbLayout:
    """Slot -> limb-row mapping of the NumPy plane.

    Slot ``s`` occupies rows ``offsets[s] .. offsets[s] + limbs[s]`` of
    the flat ``(total_rows, B)`` plane, little-endian (row ``offsets[s]``
    is the least-significant 64 bits).
    """

    limbs: List[int]
    offsets: List[int]
    slices: List[slice]
    total_rows: int

    def rows_of(self, slots: Sequence[int]) -> List[int]:
        """The plane rows of ``slots``, limb by limb, in slot order."""
        return [
            row
            for slot in slots
            for row in range(self.offsets[slot], self.offsets[slot] + self.limbs[slot])
        ]


def limb_layout(bundle: OimBundle) -> LimbLayout:
    """Compute the split-limb row layout for a design."""
    limbs = [limbs_for_width(width) for width in bundle.slot_width]
    offsets = list(accumulate(limbs, initial=0))
    total = offsets.pop()
    slices = [slice(start, start + count) for start, count in zip(offsets, limbs)]
    return LimbLayout(limbs=limbs, offsets=offsets, slices=slices, total_rows=total)


def split_limbs(value: int, count: int) -> List[int]:
    """A non-negative int as ``count`` little-endian 64-bit limbs."""
    return [(value >> (LIMB_BITS * i)) & LIMB_MASK for i in range(count)]


def combine_limbs(limbs: Sequence[int]) -> int:
    """Little-endian 64-bit limbs back to one Python int."""
    value = 0
    for i, limb in enumerate(limbs):
        value |= int(limb) << (LIMB_BITS * i)
    return value


# ----------------------------------------------------------------------
# Value-plane allocation / copy
# ----------------------------------------------------------------------
def alloc_values(
    bundle: OimBundle,
    lanes: int,
    backend: str,
    layout: Optional[LimbLayout] = None,
):
    """The batched value plane at time zero (constants + register inits),
    every lane identical."""
    initial = bundle.initial_values()
    if backend == "python":
        return [[value] * lanes for value in initial]
    np = _NUMPY
    layout = layout or limb_layout(bundle)
    plane = np.zeros((layout.total_rows, lanes), dtype=np.uint64)
    for slot, value in enumerate(initial):
        if value:
            offset = layout.offsets[slot]
            for i, limb in enumerate(split_limbs(value, layout.limbs[slot])):
                plane[offset + i] = limb
    return plane


def copy_values(values, backend: str):
    """A deep copy of the value plane (snapshots, staged commits)."""
    if backend == "python":
        return [list(row) for row in values]
    return values.copy()


def plane_rows(bundle: OimBundle, backend: str, layout: Optional[LimbLayout] = None) -> int:
    """Expected first-axis length of the value plane for ``backend``."""
    if backend == "python":
        return bundle.num_slots
    return (layout or limb_layout(bundle)).total_rows


def read_slot(
    values, slot: int, backend: str, layout: Optional[LimbLayout] = None
) -> List[int]:
    """One slot's lane vector as plain Python ints (limb-combining)."""
    if backend == "python":
        return [int(value) for value in values[slot]]
    if layout.limbs[slot] == 1:
        return values[layout.offsets[slot]].tolist()
    return [combine_limbs(lane) for lane in values[layout.slices[slot]].T.tolist()]


def write_slot(
    values,
    slot: int,
    lane_values: Sequence[int],
    backend: str,
    layout: Optional[LimbLayout] = None,
) -> None:
    """Overwrite one slot's lane vector (limb-splitting on the NumPy plane)."""
    if backend == "python":
        values[slot][:] = lane_values
        return
    offset = layout.offsets[slot]
    count = layout.limbs[slot]
    if count == 1:
        values[offset] = lane_values
    else:
        per_lane = (split_limbs(value, count) for value in lane_values)
        for i, limb_row in enumerate(zip(*per_lane)):
            values[offset + i] = limb_row


# ----------------------------------------------------------------------
# The NumPy single-row target (narrow rows of the walk and activity kernels)
# ----------------------------------------------------------------------
def popcount_parity(np):
    """A bit-exact lane-wise popcount-parity function (``xorr``) over
    uint64 rows: ``np.bitwise_count`` where NumPy has it, otherwise an
    XOR-fold of the 64-bit word (the old fallback went through a
    per-element Python ufunc that returned *object* rows mid-pipeline).
    """
    if hasattr(np, "bitwise_count"):
        def _pop(a):
            return np.bitwise_count(a).astype(np.uint64) & np.uint64(1)
        return _pop

    def _pop(a):
        v = a.astype(np.uint64, copy=True)
        for fold in (32, 16, 8, 4, 2, 1):
            v = v ^ (v >> np.uint64(fold))
        return v & np.uint64(1)

    return _pop


def numpy_target(np) -> Target:
    """The single-row NumPy target of the op table (:mod:`repro.graph.opsem`).

    Values are ``uint64`` lane vectors.  Every primitive is
    branch-free in its width arguments, so the same functions evaluate
    one ``(B,)`` row with Python-int widths and a layer-blocked ``(k, B)``
    group with ``(k, 1)`` width columns.  The guards live here
    and nowhere else: division sanitises the divisor before dividing, and
    a shift amount is clipped before the hardware-undefined region
    (``>= 64``) is reachable.  (``cat`` needs no guard: it shifts by a
    whole word only when its lhs is zero-width, hence zero.)
    """
    def clip(s):
        return np.minimum(s, 63)  # in-width lanes shift by < 64 anyway

    # Indexable by a Python int and by a (k, 1) width column alike.
    mask_of = np.array(
        [(1 << width) - 1 for width in range(U64_MAX_WIDTH + 1)], dtype=np.uint64
    ).__getitem__

    def guarded(divide):
        def primitive(x, y, *_widths):
            # A divisor passed as a Python int would otherwise drag the
            # quotient to float64.
            y = np.asarray(y, np.uint64)
            nonzero = y != 0
            return np.where(nonzero, divide(x, np.where(nonzero, y, 1)), 0)

        return primitive

    def shl(x, s, ow):
        return np.where(s < ow, x << clip(s), 0)

    def shr(x, s, w, *_ow):
        return np.where(s < w, x >> clip(s), 0)

    def head(x, n, w, *_ow):
        return shr(x, w - np.minimum(n, w), w)

    not_equal, equal = RELATIONS["!="], RELATIONS["=="]
    return Target(
        **NATIVE,
        div=guarded(operator.floordiv),
        rem=guarded(operator.mod),
        compare=RELATIONS,  # storage rows cast bool -> uint64
        shl=shl,
        shr=shr,
        head=head,
        select=np.where,
        truth=lambda x: not_equal(x, 0),
        all_ones=lambda x, w: equal(x, mask_of(w)),
        parity=popcount_parity(np),
        fit=lambda x, ow: x & mask_of(ow),
    )
