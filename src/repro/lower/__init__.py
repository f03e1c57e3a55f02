"""The shared lowering pipeline: one OIM program, many executors.

Every kernel family used to re-derive its own ad-hoc lowering of the OIM
schedule (walk rows, fiber consumers, limb plans, codegen statements).
This package lowers a design **once** into an :class:`OimProgram` --
dependence-levelled layers of typed ops with slot/width/operand
metadata, leaf and commit tables, and a canonical fingerprint -- and
every executor (the scalar walk kernels, the batched walk/codegen
kernels, the activity cascade, the split-limb plan, and the compiled C
backend) consumes that one program.

Modules:

* :mod:`repro.lower.program`  -- the IR, :func:`lower_program`, and the
  cache-backed :func:`cached_program`;
* :mod:`repro.lower.plan`     -- width classification and the blocked
  same-op limb plan derived from a program;
* :mod:`repro.lower.cbackend` -- the compiled C batch backend: one
  batched translation unit per program, compiled at design-load time and
  cached as a ``cbin`` artifact keyed by the program fingerprint.
"""

from .program import OimProgram, ProgramRow, cached_program, lower_program
from .plan import is_narrow, limb_plan
from .cbackend import (
    CBackendUnavailable,
    CompiledComb,
    compiled_comb,
    find_compiler,
    has_toolchain,
)

__all__ = [
    "OimProgram",
    "ProgramRow",
    "lower_program",
    "cached_program",
    "is_narrow",
    "limb_plan",
    "CBackendUnavailable",
    "CompiledComb",
    "compiled_comb",
    "find_compiler",
    "has_toolchain",
]
