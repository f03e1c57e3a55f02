"""The shared lowering pipeline: one OIM program, many executors.

Every kernel family used to re-derive its own ad-hoc lowering of the OIM
schedule (walk rows, fiber consumers, limb plans, generated code).
This package lowers a design **once** into an :class:`OimProgram` --
dependence-levelled layers of typed ops with slot/width/operand
metadata, leaf and commit tables, and a canonical fingerprint -- and
every executor (the scalar walk and unrolled kernels, the batched walk,
the activity cascade, the split-limb plan, and the rolled C kernel's
block tables) consumes that one program.

Modules:

* :mod:`repro.lower.program`  -- the IR, :func:`lower_program`, and the
  cache-backed :func:`cached_program`;
* :mod:`repro.lower.plan`     -- width classification and the blocked
  same-op limb plan derived from a program;
* :mod:`repro.lower.cbackend` -- the compiled C batch backend: one
  rolled kernel whose source does not depend on the design, compiled
  once per host and cached as a ``cbin`` artifact keyed by its digest.
"""

from .program import OimProgram, ProgramRow, cached_program, lower_program
from .plan import is_narrow, limb_plan
from .cbackend import (
    CBackendUnavailable,
    CompiledComb,
    data_kernel,
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
    "data_kernel",
    "find_compiler",
    "has_toolchain",
]
