"""A Verilator-like baseline backend.

Verilator translates the design into scheduled, *branchy* C++: mux
operations become ``if``/``else``, the design is split across many
moderate-sized functions, and signal values live in a model struct
(Section 3).  This module reimplements that code shape:

* :class:`VerilatorBackend` executes generated branchy Python for
  functional simulation (bit-exact; validated against the reference);
* :func:`verilator_cpp` generates the equivalent C++ and its statement
  statistics for the compile-cost model;
* :func:`verilator_profile` characterises the per-cycle behaviour for the
  performance model -- notably the high branch-misprediction rate the
  paper measures (22% on Intel Xeon for 4-core RocketChip, Section 7.3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..firrtl.primops import mask
from ..kernels.codegen_cpp import CppSource
from ..kernels.expr import python_expr
from ..kernels.profile import KernelProfile
from ..lower.cbackend import c_expr
from ..oim.builder import OimBundle, OpRecord
from ..sim.simulator import DesignLike, compile_design

#: Dynamic instructions per effectual operation: a mux-free op compiles as
#: tightly as ESSENT's straight-line code; every mux adds compare+branch
#: overhead.  -O0 multiplies by 4.42 (Section 7.4).
VERILATOR_INSTR_BASE = {"O3": 3.2, "O2": 3.6, "O0": 14.1}
VERILATOR_INSTR_PER_MUX = {"O3": 58.0, "O2": 64.0, "O0": 256.0}
#: Binary bytes per operation (19 MB at small-8's 281K paper ops).
VERILATOR_BYTES_PER_OP = {"O3": 68.0, "O2": 66.0, "O0": 150.0}
#: Branch misprediction rate on an x86-class predictor (Section 7.3).
VERILATOR_MISPREDICT = 0.22
#: Base branches per op plus the mux-driven component: Verilator lowers
#: every mux to a conditional branch, so branchy-ness tracks the design's
#: mux fraction (SHA3's xor datapath barely branches; cores branch a lot).
VERILATOR_BRANCHES_BASE = 0.01
VERILATOR_BRANCHES_PER_MUX = 1.2
#: Fused muxchainK ops stand for K Verilator muxes (Verilator does not fuse).
def _mux_weight(name: str) -> int:
    if name == "mux":
        return 1
    if name.startswith("muxchain"):
        return int(name[len("muxchain"):])
    return 0
#: Statements of generated C++ per operation (plus harness overhead).
VERILATOR_STMTS_PER_OP = 1.35
#: Verilator splits output across functions of roughly this many statements.
VERILATOR_FUNCTION_SIZE = 3_000

_CHUNK = 3_000


def _branchy_statement(bundle: OimBundle, record: OpRecord,
                       const_values: Dict[int, int], lang: str) -> List[str]:
    """Render one op in Verilator's branchy style (muxes become if/else)."""
    entry = bundle.op_table.entry(record.n)
    slot_expr = (lambda r: f"V[{r}]")
    args = [
        str(const_values[r]) if r in const_values else slot_expr(r)
        for r in record.operands
    ]
    widths = [bundle.slot_width[r] for r in record.operands]
    target = f"V[{record.s}]"
    render = python_expr if lang == "py" else c_expr
    indent = "    " if lang == "py" else "  "

    if entry.name == "mux":
        if lang == "py":
            return [
                f"{indent}if {args[0]}:",
                f"{indent}    {target} = {args[1]}",
                f"{indent}else:",
                f"{indent}    {target} = {args[2]}",
            ]
        return [
            f"{indent}if ({args[0]}) {target} = {args[1]};",
            f"{indent}else {target} = {args[2]};",
        ]
    if entry.name.startswith("muxchain"):
        lines: List[str] = []
        keyword_if = "if" if lang == "py" else "if ("
        close = ":" if lang == "py" else ")"
        body = (lambda value: f"{target} = {value}" + ("" if lang == "py" else ";"))
        for index, position in enumerate(range(0, len(args) - 1, 2)):
            head = "if" if index == 0 else "elif" if lang == "py" else "else if"
            if lang == "py":
                lines.append(f"{indent}{head} {args[position]}:")
                lines.append(f"{indent}    {body(args[position + 1])}")
            else:
                lines.append(f"{indent}{head} ({args[position]}) {body(args[position + 1])}")
        if lang == "py":
            lines.append(f"{indent}else:")
            lines.append(f"{indent}    {body(args[-1])}")
        else:
            lines.append(f"{indent}else {body(args[-1])}")
        return lines
    expression = render(entry.name, args, widths, bundle.slot_width[record.s])
    if lang == "py":
        return [f"{indent}{target} = {expression}"]
    return [f"{indent}{target} = {expression};"]


class VerilatorBackend:
    """Functional Verilator-style simulator (branchy generated Python)."""

    name = "Verilator"

    def __init__(self, design: DesignLike, opt_level: str = "O3") -> None:
        self.bundle = compile_design(design)
        self.opt_level = opt_level
        self.values: List[int] = self.bundle.initial_values()
        self.cycle = 0
        self._dirty = True
        self._functions = self._generate()

    def _generate(self):
        bundle = self.bundle
        const_values = dict(bundle.const_slots)
        records = [record for layer in bundle.layers for record in layer]
        functions = []
        for index in range(0, max(len(records), 1), _CHUNK):
            chunk = records[index:index + _CHUNK]
            name = f"_eval_{index // _CHUNK}"
            lines = [f"def {name}(V):"]
            for record in chunk:
                lines.extend(_branchy_statement(bundle, record, const_values, "py"))
            if len(lines) == 1:
                lines.append("    pass")
            namespace: Dict[str, object] = {}
            exec(compile("\n".join(lines), f"<verilator:{name}>", "exec"), namespace)
            functions.append(namespace[name])
        return functions

    # -- simulator interface -------------------------------------------
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
        for function in self._functions:
            function(self.values)
        self._dirty = False


def verilator_cpp(bundle: OimBundle) -> CppSource:
    """Generate Verilator-style C++ (branchy, many medium functions)."""
    const_values = dict(bundle.const_slots)
    records = [record for layer in bundle.layers for record in layer]
    functions: List[Tuple[str, int]] = []
    parts: List[str] = ["#include \"verilated_model.h\"\n"]
    for index in range(0, max(len(records), 1), _CHUNK):
        chunk = records[index:index + _CHUNK]
        name = f"eval_seq_{index // _CHUNK}"
        lines = [f"void Vmodel::{name}() {{"]
        for record in chunk:
            lines.extend(_branchy_statement(bundle, record, const_values, "cpp"))
        lines.append("}")
        parts.append("\n".join(lines) + "\n")
        functions.append((name, max(len(lines) - 2, 1)))
    harness = 180  # scheduler, change detection, tracing hooks
    functions.append(("harness", harness))
    text = "".join(parts)
    return CppSource(
        kernel="Verilator",
        text=text,
        functions=functions,
        kernel_statements=sum(count for _, count in functions),
        oim_data_bytes=0,
        parallel_compile=True,
    )


def verilator_profile(
    bundle: OimBundle,
    opt_level: str = "O3",
    extrapolation: float = 1.0,
) -> KernelProfile:
    """Per-cycle performance characterisation of the Verilator backend."""
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

    mux_ops = sum(
        _mux_weight(bundle.op_table.name_of(record.n))
        for layer in bundle.layers
        for record in layer
    ) * extrapolation
    mux_fraction = mux_ops / ops if ops else 0.0
    dyn_instr = (
        ops * VERILATOR_INSTR_BASE[opt_level]
        + mux_ops * VERILATOR_INSTR_PER_MUX[opt_level]
        + commits * 4
    )
    code_bytes = 400_000 + ops * VERILATOR_BYTES_PER_OP[opt_level]
    # Branch-free regions schedule like straight-line code; mux-dense
    # regions serialise on compare/branch chains.
    ilp = 6.0 - 2.0 * min(1.0, 5.0 * mux_fraction)
    if opt_level == "O0":
        ilp *= 0.5
    return KernelProfile(
        kernel="Verilator",
        design=bundle.design_name,
        ops=ops,
        operands=operands,
        layers=bundle.num_layers,
        num_slots=bundle.num_slots * extrapolation,
        dyn_instr=dyn_instr,
        code_bytes=code_bytes,
        hot_code_bytes=code_bytes * 0.50,
        oim_data_bytes=0.0,
        value_bytes=value_bytes,
        v_reads=0.3 * (operands + ops) + commits * 2,
        loads=dyn_instr * 0.35,
        branches=ops * VERILATOR_BRANCHES_BASE
        + mux_ops * VERILATOR_BRANCHES_PER_MUX + commits,
        mispredict_rate=VERILATOR_MISPREDICT,
        code_streamed=True,
        ilp=ilp,
        fetch_prefetch_hidden=0.75,
        source=None,
    )
