"""An ESSENT-like baseline backend.

ESSENT completely unrolls the RTL dataflow graph into straight-line code in
a single translation unit (Section 3): near-zero branches, excellent
instruction scheduling under ``clang -O3``, but binary size proportional to
the design and *super-linear* compile cost (Table 7).  When optimisations
are disabled (-O0) its dynamic instruction count explodes by ~103x
(Section 7.4) because the approach leans entirely on the compiler.

This module mirrors that shape: straight-line generated Python for
functional simulation, single-giant-function C++ for the compile model,
and a branch-free streamed profile for the performance model.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..firrtl.primops import mask
from ..kernels.codegen_cpp import CppSource
from ..kernels.config import get_kernel_config
from ..kernels.profile import KernelProfile
from ..kernels.pykernels import SUKernel
from ..lower.cbackend import c_expr
from ..oim.builder import OimBundle
from ..sim.simulator import DesignLike, compile_design

#: Dynamic instructions per effectual operation.  -O0 is ~103x the -O3
#: count (Section 7.4); -O2 is the activity-oblivious variant of Figure 7.
ESSENT_INSTR_PER_OP = {"O3": 3.0, "O2": 3.6, "O0": 310.0}
#: Binary bytes per operation (11 MB at small-8's 281K paper ops).
ESSENT_BYTES_PER_OP = {"O3": 16.0, "O2": 14.0, "O0": 55.0}
ESSENT_BRANCHES_PER_OP = 0.02
ESSENT_MISPREDICT = 0.001
ESSENT_STMTS_PER_OP = 1.05


class EssentBackend:
    """Functional ESSENT-style simulator (straight-line generated Python)."""

    name = "ESSENT"

    def __init__(self, design: DesignLike, opt_level: str = "O3") -> None:
        self.bundle = compile_design(design)
        self.opt_level = opt_level
        # Straight-line array code is exactly the SU shape; reuse its
        # generator for the functional path.
        self._kernel = SUKernel(self.bundle, get_kernel_config("SU"))
        self.values: List[int] = self.bundle.initial_values()
        self.cycle = 0
        self._dirty = True

    def poke(self, name: str, value: int) -> None:
        slot = self.bundle.input_slots[name]
        self.values[slot] = mask(value, self.bundle.slot_width[slot])
        self._dirty = True

    def peek(self, name: str) -> int:
        slot = self.bundle.signal_slots[name]
        self._settle()
        return self.values[slot]

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self._settle()
            staged = [
                (state, self.values[next_slot])
                for state, next_slot in self.bundle.register_commits
            ]
            for state, value in staged:
                self.values[state] = value
            self.cycle += 1
            self._dirty = True

    def reset(self) -> None:
        inputs = {
            name: self.values[slot]
            for name, slot in self.bundle.input_slots.items()
        }
        self.values = self.bundle.initial_values()
        for name, value in inputs.items():
            self.values[self.bundle.input_slots[name]] = value
        self.cycle = 0
        self._dirty = True

    def _settle(self) -> None:
        if not self._dirty:
            return
        self._kernel.eval_comb(self.values)
        self._dirty = False


def essent_cpp(bundle: OimBundle) -> CppSource:
    """Generate ESSENT-style C++: one straight-line eval in a single TU."""
    const_values = dict(bundle.const_slots)
    lines: List[str] = ["#include \"essent_model.h\"", "void eval() {"]
    statements = 0
    for layer in bundle.layers:
        for record in layer:
            entry = bundle.op_table.entry(record.n)
            args = [
                f"{const_values[r]}ULL" if r in const_values else f"sig[{r}]"
                for r in record.operands
            ]
            widths = [bundle.slot_width[r] for r in record.operands]
            expression = c_expr(
                entry.name, args, widths, bundle.slot_width[record.s]
            )
            lines.append(f"  sig[{record.s}] = {expression};")
            statements += 1
    lines.append("}")
    text = "\n".join(lines) + "\n"
    return CppSource(
        kernel="ESSENT",
        text=text,
        functions=[("eval", statements), ("harness", 120)],
        kernel_statements=statements + 120,
        oim_data_bytes=0,
    )


def essent_profile(
    bundle: OimBundle,
    opt_level: str = "O3",
    extrapolation: float = 1.0,
) -> KernelProfile:
    """Per-cycle performance characterisation of the ESSENT backend."""
    ops = bundle.num_ops * extrapolation
    operands = (
        sum(len(r.operands) for layer in bundle.layers for r in layer)
        * extrapolation
    )
    commits = len(bundle.register_commits) * extrapolation
    value_bytes = sum(
        1 if w <= 8 else 2 if w <= 16 else 4 if w <= 32 else 8
        for w in bundle.slot_width
    ) * extrapolation

    dyn_instr = ops * ESSENT_INSTR_PER_OP[opt_level] + commits * 4
    code_bytes = 250_000 + ops * ESSENT_BYTES_PER_OP[opt_level]
    # Aggressive register allocation keeps many intermediates out of memory.
    v_reads = 0.55 * operands + ops * 0.3 + commits * 2
    return KernelProfile(
        kernel="ESSENT",
        design=bundle.design_name,
        ops=ops,
        operands=operands,
        layers=bundle.num_layers,
        num_slots=bundle.num_slots * extrapolation,
        dyn_instr=dyn_instr,
        code_bytes=code_bytes,
        hot_code_bytes=code_bytes * 0.95,
        oim_data_bytes=0.0,
        value_bytes=value_bytes,
        v_reads=v_reads,
        loads=dyn_instr * 0.35,
        branches=ops * ESSENT_BRANCHES_PER_OP + commits,
        mispredict_rate=ESSENT_MISPREDICT,
        code_streamed=True,
        ilp=6.0 if opt_level != "O0" else 3.0,
        fetch_prefetch_hidden=0.75,
        source=None,
    )
