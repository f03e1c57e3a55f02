"""C++ kernel generation (Figure 14's "C++ Kernel Generation" stage).

Generates the C++ source each kernel configuration would hand to clang.
The rolled kernels (RU/OU/NU/PSU) are small, design-independent interpreter
loops over the OIM arrays; IU emits per-layer code; SU/TI emit one
statement per operation (the OIM fully encoded in the binary).

The returned :class:`CppSource` carries both the text and the statement
statistics that drive the compile-cost and binary-size models
(:mod:`repro.perf.compile_model`).  Binary sizes are *estimated from the
generated statements*, calibrated against the paper's Table 4.

This module is the paper's *modelled* C++ generation; the **executable**
compiled path is :mod:`repro.lower.cbackend`, which emits a batched C
translation unit from the same shared
:class:`~repro.lower.program.OimProgram` these generators iterate.  The
per-op expressions here are that backend's own C dialect
(:func:`repro.lower.cbackend.c_expr`) -- only the surrounding loops and
tensor accesses are modelled, and none of this text is ever compiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph.opsem import REDUCE, SELECT, UNARY
from ..lower.cbackend import c_expr
from ..lower.program import ProgramRow, cached_program
from ..oim.builder import OimBundle
from ..oim.formats import oim_storage_bytes
from .config import (
    KernelConfig,
    PSU_COMMON_UNROLL,
    PSU_WRITEBACK_UNROLL,
    get_kernel_config,
)

#: Bytes of fixed runtime in the binary (driver, JSON loader, libc++ bits);
#: calibrated to Table 4's 0.34-0.35 MB for the rolled kernels.
RUNTIME_BASE_BYTES = 340_000

#: Estimated binary bytes per generated kernel statement, per kernel, at
#: clang -O3.  Calibrated to Table 4 (rocket-8: IU 0.91 MB, SU 6.0 MB,
#: TI 5.3 MB at 139K effectual ops).
BYTES_PER_STATEMENT: Dict[str, float] = {
    "RU": 14.0,
    "OU": 14.0,
    "NU": 13.0,
    "PSU": 13.0,
    "IU": 35.0,
    "SU": 40.7,
    "TI": 28.0,
}


@dataclass
class CppSource:
    """Generated C++ plus the statistics used by the cost models."""

    kernel: str
    text: str
    #: (function name, statement count) for every generated function.
    functions: List[Tuple[str, int]]
    #: Statements belonging to the per-cycle kernel (excludes runtime).
    kernel_statements: int
    #: OIM bytes that remain *data* at runtime (shrinks as ranks unroll).
    oim_data_bytes: int
    #: Many small translation units compiled under make -j (Verilator).
    parallel_compile: bool = False

    @property
    def total_statements(self) -> int:
        return sum(count for _, count in self.functions)

    @property
    def max_function_statements(self) -> int:
        return max((count for _, count in self.functions), default=0)

    def binary_code_bytes(self, extrapolation: float = 1.0) -> int:
        """Estimated binary size (Table 4 model)."""
        per_statement = BYTES_PER_STATEMENT[self.kernel]
        return int(
            RUNTIME_BASE_BYTES + per_statement * self.kernel_statements * extrapolation
        )

    def hot_code_bytes(self, extrapolation: float = 1.0) -> int:
        """Bytes of code touched every simulated cycle (I-side footprint)."""
        per_statement = BYTES_PER_STATEMENT[self.kernel]
        return int(per_statement * self.kernel_statements * extrapolation)


_PRELUDE = """\
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>
#include "oim_loader.h"   // loads the OIM JSON into flat arrays

using u64 = uint64_t;

extern std::vector<u64> V;        // LI/LO value array (slot-indexed)
extern OimArrays oim;             // coordinate/payload arrays
"""

_COMMIT = """\
static inline void commit_registers() {
  for (size_t k = 0; k < oim.num_commits; ++k)
    commit_stage[k] = V[oim.commit_next[k]];
  for (size_t k = 0; k < oim.num_commits; ++k)
    V[oim.commit_state[k]] = commit_stage[k];
}
"""


def _count_statements(body: str) -> int:
    return sum(
        1
        for line in body.splitlines()
        if line.strip() and not line.strip().startswith(("//", "#", "}", "{"))
    )


def _rolled_interpreter(bundle: OimBundle, config: KernelConfig) -> str:
    """The RU/OU Algorithm-3 interpreter over the optimised format."""
    gather = (
        "      u64 args[MAX_ARITY];\n"
        "      for (int o = 0; o < arity; ++o)            // rank O\n"
        "        args[o] = V[oim.r_coords[r_idx++]];      // rank R (unrolled)\n"
        if config.name == "RU"
        else "      u64 args[MAX_ARITY];\n"
        "      load_operands(args, &oim.r_coords[r_idx], arity);  // O unrolled\n"
        "      r_idx += arity;\n"
    )
    cases = "".join(
        f"        case {entry.code}: out = eval_{entry.name}(args, s); break;\n"
        for entry in bundle.op_table
    )
    return (
        "void eval_cycle() {\n"
        "  size_t op_idx = 0, r_idx = 0;\n"
        "  for (size_t i = 0; i < oim.num_layers; ++i) {   // rank I\n"
        "    for (u64 k = 0; k < oim.i_payloads[i]; ++k) { // rank S\n"
        "      const u64 s = oim.s_coords[op_idx];\n"
        "      const u64 n = oim.n_coords[op_idx];         // rank N (one-hot)\n"
        "      ++op_idx;\n"
        "      const int arity = oim.arity_of[n];\n"
        f"{gather}"
        "      u64 out;\n"
        "      switch (n) {\n"
        f"{cases}"
        "        default: __builtin_unreachable();\n"
        "      }\n"
        "      V[s] = out;\n"
        "    }\n"
        "  }\n"
        "}\n"
    )


def _op_body(entry, indent: str, args: str = "args") -> str:
    names = [f"{args}[{k}]" for k in range(entry.arity)]
    widths = [64] * entry.arity
    expression = c_expr(entry.name, names, widths, 64)
    return f"{indent}V[s] = {expression};\n"


def _nu_interpreter(bundle: OimBundle, config: KernelConfig) -> str:
    """Algorithm 4: swizzled order, one loop per operation type."""
    unroll = config.s_unroll if config.name == "PSU" else 1
    blocks: List[str] = []
    for entry in bundle.op_table:
        body = (
            "      load_operands(args, &oim.r_coords[r_idx], "
            f"{entry.arity}); r_idx += {entry.arity};\n"
            "      const u64 s = oim.s_coords[s_idx++];\n"
            f"{_op_body(entry, '      ')}"
        )
        repeat = unroll if entry.klass in (REDUCE, SELECT) else 1
        unrolled_body = body * repeat
        step = f" += {repeat}" if repeat > 1 else "++"
        blocks.append(
            f"    // rank N unrolled: {entry.name}\n"
            f"    for (u64 k = oim.n_payloads[p_idx++]; k; k{step}) {{\n"
            "      u64 args[MAX_ARITY];\n"
            f"{unrolled_body}"
            "    }\n"
        )
    writeback = ""
    if config.name == "PSU":
        writeback = (
            f"  // write-back Einsum S loop, unrolled {PSU_WRITEBACK_UNROLL}x\n"
        )
    return (
        "void eval_cycle() {\n"
        "  size_t p_idx = 0, s_idx = 0, r_idx = 0;\n"
        "  for (size_t i = 0; i < oim.num_layers; ++i) {   // rank I\n"
        + "".join(blocks)
        + "  }\n"
        + writeback
        + "}\n"
    )


def _iu_source(bundle: OimBundle, config: KernelConfig) -> Tuple[str, List[Tuple[str, int]]]:
    """Per-layer functions; zero-iteration S loops eliminated."""
    functions: List[Tuple[str, int]] = []
    parts: List[str] = []
    program = cached_program(bundle)
    for i, layer in enumerate(program.layers):
        by_code: Dict[int, List[ProgramRow]] = {}
        for row in layer:
            by_code.setdefault(row[0], []).append(row)
        lines: List[str] = [f"static void layer_{i}() {{"]
        for code in sorted(by_code):
            entry = bundle.op_table.entry(code)
            count = len(by_code[code])
            lines.append(f"  for (u64 k = 0; k < {count}; ++k) {{  // {entry.name}")
            lines.append("    u64 args[MAX_ARITY];")
            lines.append(
                f"    load_operands(args, &oim.r_coords[r_idx], {entry.arity}); "
                f"r_idx += {entry.arity};"
            )
            lines.append(f"    V[oim.s_coords[s_idx++]] = eval_{entry.name}(args);")
            lines.append("  }")
        lines.append("}")
        text = "\n".join(lines) + "\n"
        parts.append(text)
        functions.append((f"layer_{i}", _count_statements(text)))
    driver = (
        "void eval_cycle() {\n"
        + "".join(f"  layer_{i}();\n" for i in range(program.num_layers))
        + "}\n"
    )
    parts.append(driver)
    functions.append(("eval_cycle", program.num_layers))
    return "".join(parts), functions


def _straight_line_source(
    bundle: OimBundle, config: KernelConfig
) -> Tuple[str, List[Tuple[str, int]]]:
    """SU (array accesses) / TI (local variables): fully unrolled code."""
    tensor_inline = config.tensor_inline
    program = cached_program(bundle)
    const_values = program.const_values()
    lines: List[str] = ["void eval_cycle() {"]
    statements = 0
    if tensor_inline:
        leaf_slots = sorted(
            set(program.input_slots.values())
            | {slot for slot, _ in bundle.register_inits}
        )
        for slot in leaf_slots:
            lines.append(f"  const u64 v{slot} = V[{slot}];")
            statements += 1
    for n, s, operands, widths, out_width in program.records():
        args = []
        for r in operands:
            if r in const_values:
                args.append(f"{const_values[r]}ULL")
            elif tensor_inline:
                args.append(f"v{r}")
            else:
                args.append(f"V[{r}]")
        expression = c_expr(program.op_names[n], args, widths, out_width)
        target = f"const u64 v{s}" if tensor_inline else f"V[{s}]"
        lines.append(f"  {target} = {expression};")
        statements += 1
    if tensor_inline:
        externals = sorted(
            set(program.output_slots.values())
            | {next_slot for _, next_slot in program.register_commits}
        )
        for slot in externals:
            lines.append(f"  V[{slot}] = v{slot};")
            statements += 1
    lines.append("}")
    text = "\n".join(lines) + "\n"
    return text, [("eval_cycle", statements)]


def generate_cpp(bundle: OimBundle, config: KernelConfig | str) -> CppSource:
    """Generate the C++ kernel for one configuration."""
    if isinstance(config, str):
        config = get_kernel_config(config)

    if config.name in ("RU", "OU"):
        kernel_text = _rolled_interpreter(bundle, config)
        functions = [("eval_cycle", _count_statements(kernel_text))]
        oim_bytes = oim_storage_bytes(bundle, "optimized")
    elif config.name in ("NU", "PSU"):
        kernel_text = _nu_interpreter(bundle, config)
        functions = [("eval_cycle", _count_statements(kernel_text))]
        oim_bytes = oim_storage_bytes(bundle, "swizzled")
    elif config.name == "IU":
        kernel_text, functions = _iu_source(bundle, config)
        # Layer structure moves into code; S/R coordinate arrays stay data.
        lowered = oim_storage_bytes(bundle, "swizzled")
        oim_bytes = int(lowered * 0.85)
    else:  # SU / TI: the OIM is fully encoded in the binary.
        kernel_text, functions = _straight_line_source(bundle, config)
        oim_bytes = 0

    text = _PRELUDE + kernel_text + _COMMIT
    kernel_statements = sum(count for _, count in functions)
    return CppSource(
        kernel=config.name,
        text=text,
        functions=functions,
        kernel_statements=kernel_statements,
        oim_data_bytes=oim_bytes,
    )
