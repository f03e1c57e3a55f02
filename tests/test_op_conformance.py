"""Op conformance matrix: every op x every target x boundary widths x
corner operands, independent of any design.

The op table (:mod:`repro.graph.opsem`) says what each op means once;
each *target* (Python ints, the NumPy single-row table, the split-limb
table, layer-blocked groups, and the Python / C source dialects)
only implements the primitives.  This matrix pins every (op, target)
pair to the FIRRTL reference evaluators of :mod:`repro.firrtl.primops`
-- never to the table under test -- so whole-design fuzzing is no longer
what keeps the targets in agreement.

Shapes come from the FIRRTL width rules at widths {1, 31, 32, 33, 63, 64,
65, 127, 128}, from every distinct (op, widths, out width) the registry
designs lower to, and from a few degenerate zero-width shapes; operands
ride the lane rank.  All C dialect cases share one translation unit and
one ``compile_shared_object`` call; the ``c-data`` column runs the
engine's own rolled kernel, one block per op.
"""

import ast
import ctypes
import os
import random
import tempfile
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

from repro.batch.backend import (
    HAS_NUMPY,
    combine_limbs,
    limbs_for_width,
    numpy_or_none,
    numpy_target,
    split_limbs,
)
from repro.batch.kernels import KernelTables, _blocked_step
from repro.batch.vecsem import limb_target
from repro.designs.registry import compiled_graph, standard_designs
from repro.firrtl.primops import PRIM_OPS, mask
from repro.graph import opsem
from repro.graph.opsem import INT, MAX_CHAIN, PRIMITIVES, Target, bind_table
from repro.kernels.expr import PYTHON
from repro.lower import cbackend

WIDTHS = (1, 31, 32, 33, 63, 64, 65, 127, 128)
NARROW = 64

#: Ops whose last operand a dialect reads as a constant (shift folding,
#: the guarded divisor): these also run with that operand inlined.
INLINED_LAST = ("shl", "shr", "dshl", "dshr", "head", "bits", "div", "rem")


# ----------------------------------------------------------------------
# The oracle: FIRRTL reference evaluators, and folds of them
# ----------------------------------------------------------------------
def expected(op, args, widths, ow):
    if op in PRIM_OPS:
        prim = PRIM_OPS[op]
        k = prim.num_args
        return prim.evaluate(args[:k], widths[:k], args[k:], ow)
    if op == "ident":
        return mask(args[0], ow)
    if op == "mux" or op.startswith("muxchain"):
        for selector, value in zip(args[0:-1:2], args[1:-1:2]):
            if selector:
                return mask(value, ow)
        return mask(args[-1], ow)
    link = PRIM_OPS[op.rstrip("0123456789")[: -len("chain")]]
    value = args[0]
    for operand in args[1:]:
        value = link.evaluate([value, operand], [ow, ow], [], ow)
    return value


# ----------------------------------------------------------------------
# Shapes and the operands that ride the lane rank
# ----------------------------------------------------------------------
def _param(value):
    """A static parameter as the graph builder passes it: a constant
    operand just wide enough to hold it."""
    return ("const", value, max(1, value.bit_length()))


def firrtl_shapes():
    """``(op, operand specs, out width)`` from the FIRRTL width rules; an
    operand spec is a width (live data) or a :func:`_param`."""
    shapes = []

    def add(op, operands, params=()):
        widths = [w for w in operands]
        ow = PRIM_OPS[op].width_rule(widths, list(params))
        shapes.append((op, tuple(operands) + tuple(_param(p) for p in params), ow))

    for w in WIDTHS:
        for op in ("add", "sub", "lt", "leq", "gt", "geq", "eq", "neq", "and", "or", "xor"):
            add(op, (w, w))
        for op in ("not", "neg", "cvt", "andr", "orr", "xorr", "asUInt", "asSInt"):
            add(op, (w,))
        for other in WIDTHS:  # mixed operand widths
            for op in ("mul", "div", "rem", "cat"):
                add(op, (w, other))
        for shift_width in (1, 5, 64):
            add("dshl", (w, shift_width))
            add("dshr", (w, shift_width))
        for n in sorted({0, 1, 5, 63, 64}):
            add("shl", (w,), (n,))
        for n in sorted({0, 1, w - 1, w, w + 1}):
            add("shr", (w,), (n,))
        for n in sorted({0, 1, w - 1} & set(range(w))):
            add("tail", (w,), (n,))
        for n in sorted({1, w, w + 1, 128}):
            add("pad", (w,), (n,))
        for n in sorted({1, max(w // 2, 1), w}):
            add("head", (w,), (n,))
        for hi, lo in sorted({(w - 1, 0), (w - 1, w - 1), (0, 0), (w // 2, w // 4)}):
            add("bits", (w,), (hi, lo))
        shapes.append(("ident", (w,), w))
        shapes.append(("mux", (1, w, w), w))
        for k in range(2, MAX_CHAIN + 1):
            shapes.append((f"muxchain{k}", (1, w) * k + (w,), w))
            for family in ("orchain", "andchain", "xorchain"):
                shapes.append((f"{family}{k}", (w,) * k, w))
        # A 64-bit shift operand whose result stays on one uint64 row.
        shapes.append(("dshl", (w, 64), min(w + 7, 64) if w <= 64 else w + 7))
    # TestVectorisedDivision's mixed-width restoring-division cases.
    for wa, wb in ((129, 129), (129, 1), (66, 130)):
        shapes.append(("div", (wa, wb), wa))
        shapes.append(("rem", (wa, wb), min(wa, wb)))
    # Degenerate zero-width operands and results.
    shapes += [
        ("cat", (0, 64), 64), ("cat", (0, 8), 8), ("cat", (8, 0), 8),
        ("dshr", (0, 3), 1), ("shr", (0, _param(1)), 1),
        ("bits", (0, _param(0), _param(0)), 1),
        ("head", (8, _param(0)), 0), ("dshl", (8, 3), 0), ("tail", (8, _param(8)), 0),
        ("andr", (0,), 1), ("pad", (0, _param(4)), 4),
    ]
    return sorted(set(shapes), key=repr)


#: Ops whose trailing operands are FIRRTL static parameters.
_PARAM_COUNT = {
    name: prim.num_params for name, prim in PRIM_OPS.items() if prim.num_params
}


@lru_cache(maxsize=None)
def registry_shapes():
    """Every distinct shape the ten registry designs lower to, with the
    constants that are FIRRTL static parameters kept as constants."""
    shapes = set()
    for design in standard_designs():
        graph = compiled_graph(design)
        for node in graph.op_nodes():
            operands = [graph.node(r) for r in node.operands]
            specs = [operand.width for operand in operands]
            for position in range(len(specs) - _PARAM_COUNT.get(node.op, 0), len(specs)):
                if operands[position].op == "const":
                    specs[position] = ("const", operands[position].value, specs[position])
            shapes.add((node.op, tuple(specs), node.width))
    return sorted(shapes, key=repr)


def _corners(width, rng):
    if width <= 0:
        return [0]
    full = (1 << width) - 1
    values = {
        0, 1, full, full - 1, 1 << (width - 1),
        0xAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA & full,
        0x5555555555555555555555555555555555555 & full,
    }
    for boundary in (32, 64):  # the multiplier's half-words, the limbs
        if width > boundary:
            values.update(((1 << boundary) - 1, 1 << boundary))
    values.update(rng.randrange(full + 1) for _ in range(3))
    return sorted(values)


def _shift_corners(width, limit):
    """Shift amounts around the width guard, and far past it."""
    candidates = (0, 1, limit - 1, limit, limit + 1, 63, 64, 65, 1 << 32, 1 << 40, (1 << 64) - 1)
    return sorted({s for s in candidates if 0 <= s < (1 << width)})


def build_case(shape):
    """``(op, widths, ow, lanes)``: one operand tuple per lane."""
    op, specs, ow = shape
    rng = random.Random(repr(shape))
    widths = tuple(spec[2] if isinstance(spec, tuple) else spec for spec in specs)
    choices = []
    for position, spec in enumerate(specs):
        if isinstance(spec, tuple):
            choices.append([spec[1]])
        elif op in ("dshl", "dshr") and position == 1:
            choices.append(_shift_corners(spec, ow if op == "dshl" else widths[0]))
        else:
            choices.append(_corners(spec, rng))
    live = [position for position, options in enumerate(choices) if len(options) > 1]
    if len(live) <= 2:  # the full cross product
        lanes = [()]
        for options in choices:
            lanes = [lane + (value,) for lane in lanes for value in options]
    else:  # gather-all ops: aligned corners, then seeded picks
        depth = max(len(options) for options in choices)
        lanes = [
            tuple(options[min(i, len(options) - 1)] for options in choices)
            for i in range(depth)
        ]
        lanes += [tuple(rng.choice(options) for options in choices) for _ in range(48)]
    return op, widths, ow, lanes


@lru_cache(maxsize=None)
def all_cases():
    shapes = sorted(set(firrtl_shapes()) | set(registry_shapes()), key=repr)
    return [build_case(shape) for shape in shapes]


def is_narrow(case):
    _op, widths, ow, _lanes = case
    return ow <= NARROW and all(w <= NARROW for w in widths)


def variants(case, inline):
    """``{value inlined as the last operand (None: all live): lanes}``.

    Only the :data:`INLINED_LAST` ops have inlined variants, one per
    distinct value of the last operand.  (Mixed-width divisions stay
    live only: ~1k fewer C functions.)
    """
    op, widths, _ow, lanes = case
    if not inline:
        return {None: range(len(lanes))}
    groups = defaultdict(list)
    if op in INLINED_LAST and not (op in ("div", "rem") and widths[0] != widths[1]):
        for index, lane in enumerate(lanes):
            groups[lane[-1]].append(index)
    return groups


def spelled(case, value, literal=str):
    """Operand names, and the argument strings with ``value`` inlined."""
    names = [f"a{k}" for k in range(len(case[1]))]
    return names, names if value is None else names[:-1] + [literal(value)]


# ----------------------------------------------------------------------
# Columns: one per target.  ``column(cases)`` yields, per case, one int
# per lane -- None for a lane (or a whole case) it does not evaluate.
# ----------------------------------------------------------------------
def int_column(target):
    table = bind_table(target, fit_all=True)  # as the table binds INT itself
    if target is INT:
        table = {name: opsem.get_semantics(name) for name in table}

    def column(cases):
        for op, widths, ow, lanes in cases:
            yield [table[op](list(lane), widths, ow) for lane in lanes]

    return column


def python_column(dialect, inline):
    def column(cases):
        for case in cases:
            op, widths, ow, lanes = case
            results = [None] * len(lanes)
            for value, indices in variants(case, inline).items():
                names, args = spelled(case, value)
                fn = eval(f"lambda {', '.join(names)}: {dialect.render(op, args, widths, ow)}")
                for index in indices:
                    results[index] = fn(*lanes[index])
            yield results

    return column


def _rows(np, lanes, dtype):
    """Operand lane vectors: one ``(B,)`` array per operand."""
    return [np.array(column, dtype=dtype) for column in zip(*lanes)]


def _stored(np, result, lanes):
    """What ``V[s] = result`` leaves in a uint64 plane row."""
    row = np.zeros(len(lanes), dtype=np.uint64)
    row[:] = result
    return [int(value) for value in row]


def u64_column(np, target):
    table = bind_table(target)

    def column(cases):
        for case in cases:
            op, widths, ow, lanes = case
            if is_narrow(case):
                yield _stored(np, table[op](_rows(np, lanes, np.uint64), widths, ow), lanes)
            else:
                yield [None] * len(lanes)

    return column


def limb_column(np, target):
    table = bind_table(target, fit_all=True)

    def column(cases):
        for op, widths, ow, lanes in cases:
            operands = [
                np.array(
                    [split_limbs(lane[k], limbs_for_width(w)) for lane in lanes],
                    dtype=np.uint64,
                ).T
                for k, w in enumerate(widths)
            ]
            result = table[op](operands, widths, ow)
            assert result.shape == (limbs_for_width(ow), len(lanes)), (op, widths, ow)
            yield [combine_limbs(result[:, lane]) for lane in range(len(lanes))]

    return column


def op_blocks(np, cases, pad_single=False):
    """Every narrow case of an op as one block of records over a plane of
    its own: the records of a block differ in widths, which is what the
    ``(k, 1)`` width columns and the rolled kernel's width tables are
    for.  Yields ``(op, plane, rows, read)``; after the block has run,
    ``read()`` returns, per case index, its result lanes."""
    groups = defaultdict(list)
    for index, case in enumerate(cases):
        if is_narrow(case):
            groups[case[0]].append(index)
    for op, members in groups.items():
        members = members if len(members) > 1 or not pad_single else members * 2
        depth = max(len(cases[index][3]) for index in members)
        arity = len(cases[members[0]][1])
        plane = np.zeros((len(members) * (arity + 1), depth), dtype=np.uint64)
        rows = []
        for k, index in enumerate(members):
            _op, widths, ow, lanes = cases[index]
            base = k * (arity + 1)
            for position in range(arity):
                values = [lane[position] for lane in lanes]
                plane[base + position] = np.array((values * depth)[:depth], dtype=np.uint64)
            rows.append((0, base + arity, tuple(range(base, base + arity)), widths, ow))

        def read(plane=plane, rows=rows, members=members):
            return {
                index: [int(v) for v in plane[row[1]][:len(cases[index][3])]]
                for index, row in zip(members, rows)
            }

        yield op, plane, rows, read


def _block_results(cases, run):
    results = [[None] * len(case[3]) for case in cases]
    for index, lanes in run().items():
        results[index] = lanes
    return results


def blocked_column(np, target):
    """Every narrow case of an op as one layer-blocked group."""
    table = bind_table(target)

    def column(cases):
        def run():
            found = {}
            for op, plane, rows, read in op_blocks(np, cases, pad_single=True):
                _blocked_step(np, table[op], rows, np.arange(plane.shape[0]))(plane)
                found.update(read())
            return found

        yield from _block_results(cases, run)

    return column


def c_data_column(np, dialect, prelude):
    """Every narrow case through the engine's rolled C kernel: one block
    per op, its tables built by the engine's own :class:`KernelTables`.
    The default dialect and prelude are the production source, so this
    runs the very shared object ``kernel="compiled"`` loads."""

    def column(cases):
        comb = cbackend.data_kernel(cbackend.data_kernel_source(dialect, prelude))

        def run():
            found = {}
            for op, plane, rows, read in op_blocks(np, cases):
                KernelTables(comb, [(op, rows)], plane.shape)(plane)
                found.update(read())
            return found

        yield from _block_results(cases, run)

    return column


def c_columns(np, dialect, prelude):
    """Every narrow case, live and inlined, as one function each of a
    single translation unit: one ``compile_shared_object`` call serves
    both columns."""
    built = {}

    def build(cases):
        bodies, symbols = [], {}
        for index, case in enumerate(cases):
            op, widths, ow, _lanes = case
            for value in [None, *variants(case, True)] if is_narrow(case) else ():
                names, args = spelled(case, value, "{}ULL".format)
                loads = " ".join(f"uint64_t {name} = A[{k} * n + b];" for k, name in enumerate(names))
                symbol = symbols[index, value] = f"case_{len(symbols)}"
                bodies.append(
                    f"void {symbol}(const uint64_t *A, uint64_t *out, int64_t n) {{\n"
                    f"    for (int64_t b = 0; b < n; ++b) {{ {loads} "
                    f"out[b] = {dialect.render(op, args, widths, ow)}; }}\n}}\n"
                )
        shared = cbackend.compile_shared_object(
            prelude + "\n" + "\n".join(bodies), cbackend.find_compiler()
        )
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "conformance.so")
            with open(path, "wb") as handle:
                handle.write(shared)
            return ctypes.CDLL(path), symbols  # the mapping outlives the file

    def column(inline):
        def run(cases):
            if id(cases) not in built:
                built.clear()
                built[id(cases)] = build(cases)
            library, symbols = built[id(cases)]
            pointer = ctypes.POINTER(ctypes.c_uint64)
            for index, case in enumerate(cases):
                lanes = case[3]
                results = [None] * len(lanes)
                out = np.zeros(len(lanes), dtype=np.uint64)
                for value, indices in variants(case, inline).items() if is_narrow(case) else ():
                    operands = np.ascontiguousarray(np.array(lanes, dtype=np.uint64).T)
                    fn = getattr(library, symbols[index, value])
                    fn.argtypes = [pointer, pointer, ctypes.c_int64]
                    fn.restype = None
                    fn(operands.ctypes.data_as(pointer), out.ctypes.data_as(pointer), len(lanes))
                    for lane in indices:
                        results[lane] = int(out[lane])
                yield results

        return run

    return {"c-dialect": column(False), "c-dialect-inlined": column(True)}


SCALAR_COLUMNS = ("int", "python-dialect", "python-dialect-inlined")
NUMPY_COLUMNS = ("u64-table", "limb-table", "blocked-group")
C_COLUMNS = ("c-dialect", "c-dialect-inlined", "c-data")


def make_columns(int_target=INT, python=PYTHON, u64=None, limb=None, c=None,
                 c_data=None, prelude=cbackend._PRELUDE, with_c=True):
    """Every column that can run here, by name, over the given targets."""
    columns = {
        "int": int_column(int_target),
        "python-dialect": python_column(python, inline=False),
        "python-dialect-inlined": python_column(python, inline=True),
    }
    np = numpy_or_none()
    if np is None:
        return columns
    u64 = u64 or numpy_target(np)
    columns.update({
        "u64-table": u64_column(np, u64),
        "limb-table": limb_column(np, limb or limb_target(np)),
        "blocked-group": blocked_column(np, u64),
    })
    if with_c and cbackend.has_toolchain():
        columns.update(c_columns(np, c or cbackend.CDialect(), prelude))
        columns["c-data"] = c_data_column(np, c_data, prelude)
    return columns


def run_matrix(columns, cases):
    """Run every column over every case; return the disagreements with
    the oracle as ``(column, op, widths, ow, lane, got, want)``."""
    want = [
        [expected(op, list(lane), list(widths), ow) for lane in lanes]
        for op, widths, ow, lanes in cases
    ]
    return [
        (name, op, widths, ow, lane, value, target)
        for name, column in columns.items()
        for (op, widths, ow, lanes), got, wanted in zip(cases, column(cases), want)
        for lane, value, target in zip(lanes, got, wanted)
        if value is not None and value != target
    ]


def _report(mismatches):
    lines = [
        f"{name}: {op}{list(widths)}->{ow} {lane}: got {got:#x}, want {want:#x}"
        for name, op, widths, ow, lane, got, want in mismatches[:20]
    ]
    return f"{len(mismatches)} disagreements with primops:\n" + "\n".join(lines)


def _skip_unless_runnable(column):
    if column not in SCALAR_COLUMNS and not HAS_NUMPY:
        pytest.skip("NumPy not installed")
    if column in C_COLUMNS and not cbackend.has_toolchain():
        pytest.skip("no C compiler (cc/gcc/clang on PATH, or REPRO_CC)")


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def test_every_op_has_a_shape():
    assert {case[0] for case in all_cases()} == set(opsem.all_op_names())


#: The production targets; shared so both C columns use one compile.
default_columns = lru_cache(maxsize=None)(make_columns)


@pytest.mark.parametrize("column", SCALAR_COLUMNS + NUMPY_COLUMNS + C_COLUMNS)
def test_target_conforms(column):
    _skip_unless_runnable(column)
    mismatches = run_matrix({column: default_columns()[column]}, all_cases())
    assert not mismatches, _report(mismatches)


# ----------------------------------------------------------------------
# Literal rows folded in from the op-level boundary tests this matrix
# replaced: each also pins the oracle itself to a hand-computed value.
# ----------------------------------------------------------------------
SPOT_ROWS = [
    # test_graph.py TestOpSemantics: fused chains, parameters as operands
    ("muxchain2", [0, 10, 1, 20, 30], [1, 8, 1, 8, 8], 8, 20),
    ("muxchain2", [1, 10, 1, 20, 30], [1, 8, 1, 8, 8], 8, 10),
    ("muxchain2", [0, 10, 0, 20, 30], [1, 8, 1, 8, 8], 8, 30),
    ("bits", [0b110110, 4, 1], [6, 3, 1], 4, 0b1011),
    ("cat", [0b1, 0b0011], [1, 4], 5, 0b10011),
    ("ident", [0x5A], [8], 8, 0x5A),
    # test_corners.py test_mask_helper_extremes: the full word, no bits
    ("not", [0], [64], 64, (1 << 64) - 1),
    ("tail", [123, 8], [8, 4], 0, 0),
    # test_kernels.py TestExprCodegen: wrap, select order, zero divisor
    ("add", [200, 100], [8, 8], 8, 300 & 0xFF),
    ("mux", [1, 5, 9], [1, 8, 8], 8, 5),
    ("mux", [0, 5, 9], [1, 8, 8], 8, 9),
    ("muxchain2", [0, 1, 1, 2, 3], [1, 8, 1, 8, 8], 8, 2),
    ("muxchain2", [1, 1, 1, 2, 3], [1, 8, 1, 8, 8], 8, 1),
    ("div", [9, 0], [8, 8], 8, 0),
    # the scalar shift-left guard: no 2**40-bit intermediate
    ("dshl", [5, 1 << 40], [8, 64], 72, 0),
    ("dshl", [5, (1 << 64) - 1], [8, 64], 72, 0),
    ("dshl", [1, 71], [8, 64], 72, 1 << 71),
]


def test_spot_rows():
    for op, args, widths, ow, literal in SPOT_ROWS:
        assert expected(op, args, widths, ow) == literal, (op, args)
        assert opsem.evaluate_node(op, args, widths, ow) == literal, (op, args)
    cases = [(op, tuple(widths), ow, [tuple(args)]) for op, args, widths, ow, _ in SPOT_ROWS]
    mismatches = run_matrix(make_columns(), cases)
    assert not mismatches, _report(mismatches)


# ----------------------------------------------------------------------
# The matrix has teeth: one target at a time gets a shift-left guard
# that is off by one (the last in-width shift already yields zero), and
# exactly the columns built on that target must report it.
# ----------------------------------------------------------------------
def _early(shl):
    return lambda x, s, ow: shl(x, s, ow - 1)


def _early_target(target):
    primitives = {name: getattr(target, name) for name in PRIMITIVES}
    return Target(**{**primitives, "shl": _early(target.shl)})


def _early_dialect(dialect_class):
    class Early(dialect_class):
        def shl(self, x, s, ow):  # the data dialect's widths are C names
            return super().shl(x, s, ow - 1 if isinstance(ow, int) else f"({ow} - 1)")

    return Early()


def _early_prelude():
    guard = "s < (uint64_t)ow ? a << s"
    assert guard in cbackend._PRELUDE
    return cbackend._PRELUDE.replace(guard, "s + 1 < (uint64_t)ow ? a << s")


#: what to break -> (how, the columns that must then report).
BREAKS = {
    "int target": (
        lambda np: {"int_target": _early_target(INT)}, {"int"}),
    "python dialect": (
        lambda np: {"python": _early_dialect(type(PYTHON))},
        {"python-dialect", "python-dialect-inlined"}),
    "u64 target": (
        lambda np: {"u64": _early_target(numpy_target(np))},
        {"u64-table", "blocked-group"}),
    "limb target": (
        lambda np: {"limb": _early_target(limb_target(np))}, {"limb-table"}),
    "c dialect": (
        lambda np: {"c": _early_dialect(cbackend.CDialect)},
        {"c-dialect", "c-dialect-inlined"}),
    "c data dialect": (
        lambda np: {"c_data": _early_dialect(cbackend.CDataDialect)}, {"c-data"}),
    # Constant shifts fold at render time and never call the prelude's
    # guard; the data kernel folds none (its shift amounts are plane
    # rows), so every one of its shifts goes through r_dshl.
    "c prelude": (
        lambda np: {"prelude": _early_prelude()}, {"c-dialect", "c-data"}),
}


@pytest.mark.parametrize("broken", sorted(BREAKS))
def test_matrix_reports_a_broken_primitive(broken):
    how, reporting = BREAKS[broken]
    for column in reporting:
        _skip_unless_runnable(column)
    shifts = [case for case in all_cases() if case[0] in ("shl", "dshl")]
    columns = make_columns(  # compile C only where a C column could report
        **how(numpy_or_none()), with_c=bool(reporting & set(C_COLUMNS))
    )
    mismatches = run_matrix(columns, shifts)
    assert {column for column, *_ in mismatches} == reporting


# ----------------------------------------------------------------------
# One op table: nothing else may grow a per-op ladder or table
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The table, the independent oracle, and the optimiser -- whose peephole
#: identities *match* op names but evaluate nothing (folding goes through
#: ``get_semantics``).
MAY_NAME_OPS = {"graph/opsem.py", "firrtl/primops.py", "graph/optimize.py"}
MAX_OP_LITERALS = 6


def _strings(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            yield from _strings(element)


def _op_literals(path):
    """Op-name string literals a module keys a table by (dict keys,
    subscripts, call arguments) or compares against."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Dict):
            sources = [key for key in node.keys if key is not None]
        elif isinstance(node, ast.Subscript):
            sources = [node.slice]
        elif isinstance(node, ast.Compare):
            sources = [node.left, *node.comparators]
        elif isinstance(node, ast.Call):
            sources = node.args
        else:
            continue
        for source in sources:
            found.update(_strings(source))
    names = set(opsem.all_op_names())
    return found & (names | {name.rstrip("0123456789") for name in names})


def test_one_op_table():
    """A ninth rendering of the op semantics would have to name the ops."""
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 100
    for path in files:
        if path.relative_to(SRC).as_posix() in MAY_NAME_OPS:
            continue
        literals = _op_literals(path)
        assert len(literals) <= MAX_OP_LITERALS, (
            f"{path} names {len(literals)} ops ({sorted(literals)}): "
            "op meaning belongs in graph/opsem.py, as a row or a primitive"
        )
