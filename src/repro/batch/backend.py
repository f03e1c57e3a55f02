"""Storage backends for the batched value plane.

The batched simulator widens the paper's value tensor ``V`` (the
identity-elided ``LI``/``LO``: one persistent slot per value) by a lane
rank ``B``.  Four backends realise the plane:

* ``u64``    -- a ``(num_slots, B)`` NumPy ``uint64`` array; the fast
  path, valid whenever every slot width fits 64 bits (wrap-around modulo
  2**64 followed by the slot-width mask is bit-exact for add/sub/mul, and
  shifts are guarded);
* ``u64xN``  -- the split-limb fast path for wide designs: each slot
  stores ``ceil(width/64)`` little-endian uint64 *limb rows* in a flat
  ``(total_limb_rows, B)`` plane (see :class:`LimbLayout`).  Arithmetic
  carries propagate across limbs and shifts/cat/bits cross limb
  boundaries (:func:`repro.batch.vecsem.limb_target`), so a single
  65-bit slot no longer degrades the whole design to object rows;
* ``object`` -- a NumPy ``object`` array of Python ints; still vectorised
  at the ufunc level, bit-exact at any width but an order of magnitude
  slower than native-width storage;
* ``python`` -- plain list-of-lists, used when NumPy is absent so the
  subsystem never breaks in an offline environment.

NumPy is an *optional* dependency (the ``[batch]`` extra): everything in
``repro.batch`` imports cleanly without it and falls back to ``python``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..graph.opsem import NATIVE, RELATIONS, Target
from ..oim.builder import OimBundle

#: Widest slot the single-row uint64 backend can hold exactly; also the
#: limb granularity of the split-limb backend.
U64_MAX_WIDTH = 64
LIMB_BITS = 64
LIMB_MASK = (1 << LIMB_BITS) - 1

BACKENDS = ("u64", "u64xN", "object", "python")

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

    ``auto`` prefers ``u64``, takes the split-limb ``u64xN`` fast path for
    designs with >64-bit slots, and degrades to ``python`` when NumPy is
    missing.  ``object`` is never chosen automatically any more -- it
    remains available on request (arbitrary-width reference / benchmark
    comparison arm).  Explicitly requesting ``u64`` on a too-wide design
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
    """Slot -> limb-row mapping of the ``u64xN`` plane.

    Slot ``s`` occupies rows ``offsets[s] .. offsets[s] + limbs[s]`` of
    the flat ``(total_rows, B)`` plane, little-endian (row ``offsets[s]``
    is the least-significant 64 bits).
    """

    limbs: List[int]
    offsets: List[int]
    slices: List[slice]
    total_rows: int

    def slot_slice(self, slot: int) -> slice:
        return self.slices[slot]


def limb_layout(bundle: OimBundle) -> LimbLayout:
    """Compute the split-limb row layout for a design."""
    limbs = [limbs_for_width(width) for width in bundle.slot_width]
    offsets: List[int] = []
    slices: List[slice] = []
    total = 0
    for count in limbs:
        offsets.append(total)
        slices.append(slice(total, total + count))
        total += count
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
    if backend == "u64":
        plane = np.zeros((bundle.num_slots, lanes), dtype=np.uint64)
        for slot, value in enumerate(initial):
            if value:
                plane[slot] = value
        return plane
    if backend == "u64xN":
        layout = layout or limb_layout(bundle)
        plane = np.zeros((layout.total_rows, lanes), dtype=np.uint64)
        for slot, value in enumerate(initial):
            if value:
                offset = layout.offsets[slot]
                for i, limb in enumerate(split_limbs(value, layout.limbs[slot])):
                    plane[offset + i] = limb
        return plane
    plane = np.empty((bundle.num_slots, lanes), dtype=object)
    plane[...] = 0
    for slot, value in enumerate(initial):
        if value:
            plane[slot] = value
    return plane


def copy_values(values, backend: str):
    """A deep copy of the value plane (snapshots, staged commits)."""
    if backend == "python":
        return [list(row) for row in values]
    return values.copy()


def plane_rows(bundle: OimBundle, backend: str, layout: Optional[LimbLayout] = None) -> int:
    """Expected first-axis length of the value plane for ``backend``."""
    if backend == "u64xN":
        return (layout or limb_layout(bundle)).total_rows
    return bundle.num_slots


def row_to_ints(row) -> List[int]:
    """One plane row's lane vector as plain Python ints."""
    return [int(value) for value in row]


def read_slot(
    values, slot: int, backend: str, layout: Optional[LimbLayout] = None
) -> List[int]:
    """One slot's lane vector as plain Python ints (limb-combining)."""
    if backend != "u64xN":
        return [int(value) for value in values[slot]]
    rows = values[layout.slices[slot]]
    if len(rows) == 1:
        return [int(value) for value in rows[0]]
    lanes = rows.shape[1]
    return [combine_limbs(rows[:, lane]) for lane in range(lanes)]


def write_slot(
    values,
    slot: int,
    lane_values: Sequence[int],
    backend: str,
    layout: Optional[LimbLayout] = None,
) -> None:
    """Overwrite one slot's lane vector (limb-splitting on ``u64xN``)."""
    if backend == "python":
        values[slot][:] = lane_values
    elif backend == "u64xN":
        offset = layout.offsets[slot]
        count = layout.limbs[slot]
        if count == 1:
            values[offset] = lane_values
        else:
            per_lane = (split_limbs(value, count) for value in lane_values)
            for i, limb_row in enumerate(zip(*per_lane)):
                values[offset + i] = limb_row
    else:
        values[slot] = lane_values


# ----------------------------------------------------------------------
# The NumPy single-row target (shared by the walk and codegen kernels)
# ----------------------------------------------------------------------
def popcount_parity(np, object_mode: bool = False):
    """A bit-exact lane-wise popcount-parity function (``xorr``).

    On the native uint64 paths this prefers ``np.bitwise_count`` and
    otherwise XOR-folds the 64-bit word (shared by the ``u64`` and
    ``u64xN`` backends -- the old fallback went through a per-element
    Python ufunc that returned *object* rows mid-pipeline).  The object
    path keeps the unbounded-int ufunc, which is exact at any width.
    """
    if object_mode:
        return np.frompyfunc(lambda v: bin(int(v)).count("1") & 1, 1, 1)
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


def numpy_target(np, object_mode: bool = False) -> Target:
    """The single-row NumPy target of the op table (:mod:`repro.graph.opsem`).

    Values are ``uint64`` lane vectors -- or, in ``object_mode``, object
    arrays of Python ints, bit-exact at any width.  Every primitive is
    branch-free in its width arguments, so the same functions evaluate
    one ``(B,)`` row with Python-int widths and a layer-blocked ``(k, B)``
    group with ``(k, 1)`` width columns.  The guards live here
    and nowhere else: division sanitises the divisor before dividing, and
    a shift amount is clipped before the hardware-undefined region
    (``>= 64``) is reachable.  (``cat`` needs no guard: it shifts by a
    whole word only when its lhs is zero-width, hence zero.)
    """
    if object_mode:
        dtype = object

        def clip(s, in_width):
            return np.where(in_width, s, 0)  # never build a 2**s-bit int

        def mask_of(width):
            return (1 << width) - 1

        # bool ndarray -> object ndarray of Python ints (0/1), so that
        # downstream unbounded arithmetic never sees numpy scalars.
        compare = {
            rel: (lambda x, y, holds=holds: holds(x, y).astype(object) * 1)
            for rel, holds in RELATIONS.items()
        }
    else:
        dtype = np.uint64

        def clip(s, in_width):
            return np.minimum(s, 63)  # in-width lanes shift by < 64 anyway

        # Indexable by a Python int and by a (k, 1) width column alike.
        mask_of = np.array(
            [(1 << width) - 1 for width in range(U64_MAX_WIDTH + 1)], dtype=dtype
        ).__getitem__
        compare = RELATIONS  # storage rows cast bool -> uint64

    def guarded(divide):
        def primitive(x, y, *_widths):
            # Generated code inlines a constant divisor as a Python int,
            # which would otherwise drag the quotient to float64.
            y = np.asarray(y, dtype)
            nonzero = y != 0
            return np.where(nonzero, divide(x, np.where(nonzero, y, 1)), 0)

        return primitive

    def shl(x, s, ow):
        in_width = s < ow
        return np.where(in_width, x << clip(s, in_width), 0)

    def shr(x, s, w, *_ow):
        in_width = s < w
        return np.where(in_width, x >> clip(s, in_width), 0)

    def head(x, n, w, *_ow):
        return shr(x, w - np.minimum(n, w), w)

    not_equal, equal = compare["!="], compare["=="]
    return Target(
        **NATIVE,
        div=guarded(operator.floordiv),
        rem=guarded(operator.mod),
        compare=compare,
        shl=shl,
        shr=shr,
        head=head,
        select=np.where,
        truth=lambda x: not_equal(x, 0),
        all_ones=lambda x, w: equal(x, mask_of(w)),
        parity=popcount_parity(np, object_mode),
        fit=lambda x, ow: x & mask_of(ow),
    )


def codegen_namespace(target: Target) -> Dict[str, object]:
    """The globals of generated NumPy code: the helper names the NumPy
    dialect (:class:`repro.graph.opsem.Dialect`) spells, bound to the
    primitives of a :func:`numpy_target`."""
    return {
        "_where": target.select,
        "_div": target.div,
        "_rem": target.rem,
        "_dshl": target.shl,
        "_dshr": target.shr,
        "_head": target.head,
        "_pop": target.parity,
    }
