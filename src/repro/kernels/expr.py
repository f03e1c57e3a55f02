"""Per-operation expression code generation: the Python dialect.

Shared by the unrolled Python kernels (IU/SU/TI) and the baseline
backends.  Given an operation, operand expressions, operand widths and
the output width, produce a source-level expression string.  What an op
*means* comes from the one table in :mod:`repro.graph.opsem`; this module
only holds how the Python dialect of its
:class:`~repro.graph.opsem.Dialect` renderer spells the primitives (the C
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


def needs_mask(op: str) -> bool:
    """False for ops whose result already fits the output width when the
    operands do."""
    return get_semantics(op).masked


def python_expr(
    op: str, args: Sequence[str], widths: Sequence[int], out_width: int
) -> str:
    """Render one operation as a Python expression over ``args`` strings."""
    return PYTHON.render(op, args, widths, out_width)
