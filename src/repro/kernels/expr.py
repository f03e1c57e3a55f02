"""Per-operation expression code generation: the Python and NumPy dialects.

Shared by the unrolled Python kernels (IU/SU/TI), the batched SU codegen
kernel and the baseline backends.  Given an operation, operand expressions,
operand widths and the output width, produce a source-level expression
string.  What an op *means* comes from the one table in
:mod:`repro.graph.opsem`; this module only holds how two dialects of its
:class:`~repro.graph.opsem.Dialect` renderer spell the primitives (the C
dialect lives next to the prelude it calls, in :mod:`repro.lower.cbackend`).

Constant operands (FIRRTL static parameters) are inlined by callers before
reaching here where beneficial.
"""

from __future__ import annotations

from typing import Sequence

from ..graph.opsem import Dialect, get_semantics


class PythonDialect(Dialect):
    """Expressions over unbounded Python ints: no word size, so no shift
    folding and no guarded helpers -- conditionals are spelled inline."""

    def div(self, x, y, *_widths):
        return f"({x} // {y} if {y} else 0)"

    def rem(self, x, y, *_widths):
        return f"({x} % {y} if {y} else 0)"

    def relation(self, rel, x, y):
        return f"(1 if {x} {rel} {y} else 0)"

    def shl(self, x, s, ow):
        # Never shift past the output width: ``x << (1 << 40)`` would
        # materialise the whole integer before the mask discards it.
        shift = self.const(s)
        if shift is None:
            return f"({x} << {s} if {s} < {ow} else 0)"
        return f"{x} << {shift}" if shift < ow else "0"

    def shr(self, x, s, w, *_ow):
        return f"({x} >> {s})"

    def head(self, x, n, w, *_ow):
        return f"({x} >> max({w} - {n}, 0))"

    def cat(self, x, y, wy, ow):
        return f"({x} << {wy}) | {y}"

    def select(self, c, t, f):
        return f"({t} if {c} else {f})"

    def truth(self, x):
        return f"(1 if {x} else 0)"

    def parity(self, x):
        return f"bin({x}).count('1') & 1"


PYTHON = PythonDialect()
NUMPY = Dialect()


def needs_mask(op: str) -> bool:
    """False for ops whose result already fits the output width when the
    operands do."""
    return get_semantics(op).masked


def python_expr(
    op: str, args: Sequence[str], widths: Sequence[int], out_width: int
) -> str:
    """Render one operation as a Python expression over ``args`` strings."""
    return PYTHON.render(op, args, widths, out_width)


def numpy_expr(
    op: str, args: Sequence[str], widths: Sequence[int], out_width: int
) -> str:
    """Render one operation as a NumPy expression over lane-vector ``args``.

    Used by the batched straight-line kernel (:mod:`repro.batch.kernels`):
    each arg names a uint64 lane vector (one row of the batched value
    plane), so Python conditionals become ``_where`` and the data-dependent
    or shift-guarded operations call helpers (``_div``, ``_rem``, ``_dshl``,
    ``_dshr``, ``_head``, ``_pop``) that the kernel injects into the
    generated namespace.  Only valid when every operand and result width
    fits uint64; wider operations render through :func:`numpy_limb_expr`.
    """
    return NUMPY.render(op, args, widths, out_width)


def numpy_limb_expr(
    op: str, args: Sequence[str], widths: Sequence[int], out_width: int
) -> str:
    """Render one >64-bit operation as a split-limb evaluator call.

    Used by the batched straight-line kernel on ``u64xN`` planes for the
    (rare) statements whose operand or result widths exceed 64 bits: each
    arg names a ``(limbs, B)`` slice of the flat limb-row plane
    (``V[40:42]``), and the emitted expression calls the matching
    ``_limb_<op>`` evaluator (:func:`repro.batch.vecsem.make_limb_table`)
    that the kernel injects into the generated namespace.  The evaluator
    applies the output-width mask itself, so no trailing mask is emitted.
    """
    get_semantics(op)  # unknown ops are rejected here, not at run time
    arg_list = ", ".join(args) + ("," if len(args) == 1 else "")
    width_list = ", ".join(str(w) for w in widths) + ("," if len(widths) == 1 else "")
    return f"_limb_{op}(({arg_list}), ({width_list}), {out_width})"
