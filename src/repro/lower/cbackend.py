"""The compiled C batch backend: one rolled kernel for every design.

:func:`data_kernel_source` is the paper's rolled kernel over OIM block
tables (Figure 12c's swizzled ``[I,N,S,O,R]`` format, the N rank
unrolled into code): one ``static void op_<name>`` per op-table row,
looping over a block's rows and, inside, over the B lanes of the NumPy
``(num_slots, B)`` value plane, with every row's widths and output mask
read from tables -- so the source does not depend on the design.  Each
body is the op table's meaning (:mod:`repro.graph.opsem`) spelled by
:class:`CDataDialect`; the guards live in the prelude's ``r_*`` helpers,
and the op conformance matrix holds both to the FIRRTL reference.  The
entry point ``repro_run_blocks`` walks one ``(op id, row start, count)``
block per (layer, op) of the tables
:class:`repro.batch.kernels.KernelTables` builds from a program.  Only
u64-eligible designs (every slot width <= 64) run it.

:func:`data_kernel` compiles it once per host: the shared object is
stored in the :mod:`repro.serve` artifact cache under kind ``cbin``,
keyed by the source digest plus the host triple and compile flags, so
every design, shard partition and fleet member -- and every warm start
-- loads it without a compiler.  Without a toolchain,
:class:`ToolchainUnavailable` is raised and callers fall back to the
NumPy walk: the backend degrades, it never breaks.

:func:`emit_c` is the other code shape, a design as straight-line C (the
ESSENT-style subject); only the end-to-end benchmark's trace pass
compiles it.  This module imports no NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from typing import Dict, List, Optional

from ..graph.opsem import Dialect, all_op_names, get_semantics
from .program import OimProgram

#: Straight-line :func:`emit_c` only: rows per generated chunk function,
#: and the program size above which ``-O1`` on that text costs the
#: better part of a minute (so its compile drops to ``-O0``).
C_CHUNK = 4000
BIG_PROGRAM_ROWS = 20_000
BASE_CFLAGS = ("-shared", "-fPIC")
#: The one flags tuple (the rolled kernel, every conformance column).
#: ``-O1``: with gcc 12 it compiles in 0.48 s to ``-O2``'s 0.73 s, and the
#: kernel runs rocket-1 / gemmini-8 at B=64 within 5% of ``-O2``.
CFLAGS = ("-O1", *BASE_CFLAGS)


class CBackendUnavailable(RuntimeError):
    """The compiled backend cannot run here; use the NumPy fallback."""


class ToolchainUnavailable(CBackendUnavailable):
    """No C compiler on PATH (and no cached shared object to load)."""


def find_compiler() -> Optional[str]:
    """The C compiler to use, or None.

    ``REPRO_CC`` overrides probing (set it empty to force the backend
    off, e.g. to exercise fallbacks in tests); otherwise the first of
    ``cc``/``gcc``/``clang`` on PATH wins.
    """
    override = os.environ.get("REPRO_CC")
    if override is not None:
        override = override.strip()
        return override or None
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def has_toolchain() -> bool:
    return find_compiler() is not None


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------
_PRELUDE = """\
#include <stdint.h>

static inline uint64_t r_div(uint64_t a, uint64_t b) {
    return b ? a / b : 0;
}
static inline uint64_t r_rem(uint64_t a, uint64_t b) {
    return b ? a % b : 0;
}
static inline uint64_t r_dshl(uint64_t a, uint64_t s, int64_t ow) {
    if (ow <= 0) return 0;
    return s < (uint64_t)ow ? a << s : 0;
}
static inline uint64_t r_dshr(uint64_t a, uint64_t s, int64_t iw) {
    if (iw <= 0) return 0;
    return s < (uint64_t)iw ? a >> s : 0;
}
static inline uint64_t r_head(uint64_t a, uint64_t nbits, int64_t iw) {
    uint64_t w, shift;
    if (iw <= 0) return 0;
    w = (uint64_t)iw;
    shift = w - (nbits < w ? nbits : w);
    if (shift >= w) return 0;
    return shift ? a >> shift : a;
}
static inline uint64_t r_pop(uint64_t x) {
    x ^= x >> 32; x ^= x >> 16; x ^= x >> 8;
    x ^= x >> 4;  x ^= x >> 2;  x ^= x >> 1;
    return x & 1u;
}
"""


class CDialect(Dialect):
    """The op table's renderer spelling C over ``uint64_t``: the guarded
    helpers are the prelude's ``r_*`` functions, comparisons are cast
    back to the value type, a folded-away shift is a plain ``0``, and
    the output mask disappears at the full word."""

    suffix = "ULL"
    prefix = "r_"

    def relation(self, rel, x, y):
        return f"(uint64_t)({x} {rel} {y})"

    def zero(self, x):
        return "0"

    def select(self, c, t, f):
        return f"({c} ? {t} : {f})"

    def fit(self, x, ow):
        if ow <= 0:
            return "0"
        return super().fit(x, ow) if ow < self.WORD else x


#: ``c_expr(op, args, widths, out_width)``: one op as a C expression over
#: the ``args`` strings (live operands, or ``<n>ULL`` inlined constants).
c_expr = CDialect().render


class CDataDialect(CDialect):
    """:class:`CDialect` with widths as row data: ``w0``/``w1``/``ow``
    and the output mask ``m`` are C variables of the rolled kernel, not
    literals.  Only the primitives that fold a width at render time are
    spelled anew; with no literal operand, shifts and ``head`` already
    render as the prelude's guarded ``r_*`` calls."""

    def fit(self, x, ow):
        return f"({x}) & m"

    def cat(self, x, y, wy, ow):
        return f"({wy} >= {self.WORD} ? {y} : ({x} << {wy}) | {y})"

    def all_ones(self, x, w):
        return self.relation("==", x, f"({w} >= {self.WORD} ? ~0ULL : (1ULL << {w}) - 1)")


_OP = """\
static void op_{name}(OP_PARAMS) {{
    for (int64_t i = 0; i < count; ++i, arg += {arity}) {{
        uint64_t *restrict o = V + (int64_t)out[i] * n;
        const int64_t w0 = W0[i], w1 = W1[i], ow = OW[i];
        const uint64_t m = M[i];
        {pointers}
        for (int64_t b = 0; b < n; ++b) {{
            {loads}
            o[b] = {expression};
        }}
    }}
}}
"""

_DATA_KERNEL = """\
#define OP_PARAMS uint64_t *V, int64_t n, const int32_t *out, const int32_t *arg, \\
    const int32_t *W0, const int32_t *W1, const int32_t *OW, const uint64_t *M, int64_t count

{bodies}
typedef void (*op_fn)(OP_PARAMS);
static const op_fn OPS[] = {{{ops}}};
static const int64_t ARITY[] = {{{arities}}};

void repro_run_blocks(uint64_t *V, int64_t n, const int32_t *blocks, int64_t nblocks,
                      const int32_t *out, const int32_t *arg, const int32_t *W0,
                      const int32_t *W1, const int32_t *OW, const uint64_t *M) {{
    for (int64_t k = 0; k < nblocks; ++k) {{
        const int32_t op = blocks[3 * k], start = blocks[3 * k + 1], count = blocks[3 * k + 2];
        OPS[op](V, n, out + start, arg, W0 + start, W1 + start, OW + start, M + start, count);
        arg += (int64_t)count * ARITY[op];
    }}
}}
"""

#: The rolled kernel's op ids: ``DATA_OPS[id]`` is the op-table row
#: ``op_<name>`` evaluates, the same for every design.
DATA_OPS = tuple(all_op_names())


@lru_cache(maxsize=None)
def data_kernel_source(dialect: Optional[Dialect] = None, prelude: str = _PRELUDE) -> str:
    """The rolled kernel: ``repro_run_blocks`` evaluates, block by
    block, ``count`` rows of one op from row ``start`` on -- row ``i``
    writes slot ``out[i]`` from the op's fixed number of ``arg`` slots,
    with operand widths ``W0[i]``/``W1[i]``, output width ``OW[i]`` and
    mask ``M[i]`` -- for every lane of the ``(num_slots, n)`` plane ``V``.
    """
    dialect = dialect or CDataDialect()
    bodies, arities = [], [get_semantics(name).arity for name in DATA_OPS]
    for name, arity in zip(DATA_OPS, arities):
        bodies.append(_OP.format(
            name=name, arity=arity,
            pointers=" ".join(
                f"const uint64_t *p{k} = V + (int64_t)arg[{k}] * n;" for k in range(arity)
            ),
            loads=" ".join(f"const uint64_t a{k} = p{k}[b];" for k in range(arity)),
            expression=dialect.render(
                name, [f"a{k}" for k in range(arity)], ("w0", "w1"), "ow"
            ),
        ))
    return prelude + "\n" + _DATA_KERNEL.format(
        bodies="\n".join(bodies),
        ops=", ".join(f"op_{name}" for name in DATA_OPS),
        arities=", ".join(map(str, arities)),
    )


def emit_c(program: OimProgram) -> str:
    """The whole program as one batched C translation unit.

    Layout: the prelude's guarded helpers; one ``static void chunk_k``
    per ``C_CHUNK`` rows evaluating its slice of the straight-line
    schedule for a single lane (slots live in ``uint64_t`` locals within
    a chunk -- loaded from the plane on first use, stored back on
    every assignment so peeks of arbitrary slots stay valid); and the
    exported driver ``repro_eval_comb(uint64_t *V, int64_t lanes)``
    looping lanes over the chunks.  ``V`` is the C-contiguous
    ``(num_slots, lanes)`` uint64 plane, so slot ``s`` of lane ``b``
    is ``V[s*lanes + b]``.
    """
    const_values = program.const_values()
    rows = list(program.records())
    chunks: List[str] = []
    for start in range(0, max(len(rows), 1), C_CHUNK):
        slice_rows = rows[start:start + C_CHUNK]
        defined: set = set()
        loads: List[int] = []
        body: List[str] = []
        for n, s, operands, widths, out_width in slice_rows:
            args: List[str] = []
            for r in operands:
                if r in const_values:
                    args.append(f"{const_values[r]}ULL")
                else:
                    if r not in defined and r not in loads:
                        loads.append(r)
                    args.append(f"v{r}")
            expression = c_expr(program.op_names[n], args, widths, out_width)
            body.append(f"    uint64_t v{s} = {expression};")
            body.append(f"    V[(int64_t){s} * n + b] = v{s};")
            defined.add(s)
        header = [
            f"    uint64_t v{r} = V[(int64_t){r} * n + b];" for r in loads
        ]
        index = start // C_CHUNK
        lines = header + body if (header or body) else ["    (void)V; (void)n; (void)b;"]
        chunks.append(
            f"static void chunk_{index}(uint64_t *V, int64_t n, int64_t b) {{\n"
            + "\n".join(lines)
            + "\n}\n"
        )
    calls = "\n".join(
        f"        chunk_{index}(V, n, b);" for index in range(len(chunks))
    )
    driver = (
        "void repro_eval_comb(uint64_t *V, int64_t n) {\n"
        "    int64_t b;\n"
        "    for (b = 0; b < n; ++b) {\n"
        f"{calls}\n"
        "    }\n"
        "}\n"
    )
    return _PRELUDE + "\n" + "\n".join(chunks) + "\n" + driver


# ----------------------------------------------------------------------
# Compilation and loading
# ----------------------------------------------------------------------
def compile_shared_object(source: str, cc: str, flags=None) -> bytes:
    """Compile ``source`` with ``cc`` (``flags`` default: :data:`CFLAGS`)
    and return the shared-object bytes."""
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as workdir:
        src = os.path.join(workdir, "comb.c")
        out = os.path.join(workdir, "comb.so")
        with open(src, "w") as handle:
            handle.write(source)
        result = subprocess.run(
            [cc, *(flags or CFLAGS), "-o", out, src], capture_output=True, text=True
        )
        if result.returncode != 0:
            detail = (result.stderr or result.stdout or "").strip()
            raise CBackendUnavailable(
                f"{cc} failed (rc={result.returncode}): {detail[:2000]}"
            )
        with open(out, "rb") as handle:
            return handle.read()


class CompiledComb:
    """A loaded shared object: :attr:`library` is the ``ctypes`` handle
    (the rolled kernel binds ``repro_run_blocks`` through it), and
    ``comb(plane)`` runs an :func:`emit_c` object's ``repro_eval_comb``
    over every lane of a C-contiguous ``(num_slots, B)`` uint64 plane in
    place.  The ``.so`` only touches disk for the ``dlopen``: its temp
    directory is gone again before the constructor returns (the mapping
    survives the unlink), so nothing is left to clean up at exit -- or
    to leak from a process that never runs its exit handlers."""

    def __init__(self, so_bytes: bytes, fingerprint: str) -> None:
        self.fingerprint = fingerprint
        with tempfile.TemporaryDirectory(prefix="repro-cbin-") as workdir:
            path = os.path.join(workdir, "comb.so")
            with open(path, "wb") as handle:
                handle.write(so_bytes)
            try:
                self.library = ctypes.CDLL(path)
            except OSError as error:  # e.g. noexec tmp mount
                raise CBackendUnavailable(
                    f"cannot load compiled kernel: {error}"
                ) from error
        self._fn = None

    def __call__(self, plane) -> None:
        if not plane.flags["C_CONTIGUOUS"]:
            raise ValueError("compiled kernel needs a C-contiguous plane")
        if self._fn is None:
            self._fn = self.library.repro_eval_comb
            self._fn.argtypes = [ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64]
            self._fn.restype = None
        pointer = plane.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))
        self._fn(pointer, plane.shape[1])


def _cbin_digest(source: str) -> str:
    """The ``cbin`` cache key: same source + same host shape + same
    flags -> same shared object.  The compiler *name* stays out so a
    cc/gcc alias switch doesn't force a recompile."""
    hasher = hashlib.sha256()
    for part in (source, platform.machine(), sys.platform, CFLAGS):
        hasher.update(repr(part).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


#: Loaded kernels by cbin digest: every design, partition and fleet
#: member in one process -- and every worker forked from it after the
#: first load -- shares one mapped shared object.
_MEMO: Dict[str, CompiledComb] = {}


def data_kernel(source: Optional[str] = None) -> CompiledComb:
    """The rolled kernel (``source``, default :func:`data_kernel_source`)
    as a loaded shared object, whatever the design.

    Resolution order: in-process memo, then the artifact cache's
    ``cbin`` entry (a warm start needs no toolchain at all), then a
    fresh compile (cached for the next process).  Raises
    :class:`ToolchainUnavailable` / :class:`CBackendUnavailable` when
    neither a cached object nor a compiler is available.
    """
    from ..serve import artifacts

    source = source or data_kernel_source()
    digest = _cbin_digest(source)
    memoised = _MEMO.get(digest)
    if memoised is not None:
        return memoised

    cache = artifacts.get_cache()
    so_bytes: Optional[bytes] = None
    if cache is not None:
        envelope = cache.get("cbin", digest)
        if isinstance(envelope, dict):
            cached = envelope.get("so")
            if isinstance(cached, bytes):
                so_bytes = cached
    if so_bytes is None:
        cc = find_compiler()
        if cc is None:
            raise ToolchainUnavailable(
                "no C compiler found (cc/gcc/clang; set REPRO_CC to "
                "override) and no cached compiled kernel on this host"
            )
        so_bytes = compile_shared_object(source, cc)
        if cache is not None:
            cache.put("cbin", digest, {"so": so_bytes, "cc": os.path.basename(cc)})
    comb = CompiledComb(so_bytes, hashlib.sha256(source.encode()).hexdigest())
    _MEMO[digest] = comb
    return comb
