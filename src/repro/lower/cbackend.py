"""The compiled C batch backend: one translation unit per program.

:func:`emit_c` lowers an :class:`~repro.lower.program.OimProgram` into a
single batched C translation unit -- the whole OIM schedule as
straight-line statements over ``uint64_t`` locals (the compiler's
register allocator fuses chains of statements and eliminates common
subexpression rows), wrapped in a loop over the B lanes with the NumPy
``(num_slots, B)`` value plane passed in as a raw pointer.  Each
expression is the op table's meaning (:mod:`repro.graph.opsem`) spelled
by :class:`CDialect` -- the shared :class:`~repro.graph.opsem.Dialect`
renderer in C spelling, so constant shifts fold at render time -- with
the guards in the prelude's ``r_*`` helpers; the op conformance matrix
holds it to the FIRRTL reference.  Only u64-eligible designs
(every slot width <= 64) compile; wider designs keep the split-limb
NumPy path.

:func:`compiled_comb` is the entry point: program -> cached shared
object.  The compiled artifact is stored in the :mod:`repro.serve`
artifact cache under kind ``cbin``, keyed by the program fingerprint
plus the host triple and compile flags, so warm starts (and fleet
members sharing a cache directory) load the ``.so`` bytes without
invoking a compiler at all.  When no C toolchain is present,
:class:`ToolchainUnavailable` is raised and callers fall back to the
NumPy walk -- the backend degrades, it never breaks.

This module imports no NumPy: toolchain probing and source emission must
work (and report cleanly) in the no-NumPy environment too.
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
from typing import Dict, List, Optional

from ..graph.opsem import Dialect
from .program import OimProgram

#: Rows per generated chunk function (mirrors the scalar SU kernel's chunking;
#: keeps single-function size sane for the C compiler on huge designs).
C_CHUNK = 4000

#: Optimisation level by program size.  ``-O1`` deliberately, not
#: ``-O2``: measured on rocket-1 it is both the fastest to run (the
#: straight-line code only needs register fusion and local CSE) and 5x
#: quicker to compile.  Above ``BIG_PROGRAM_ROWS`` rows even -O1 costs
#: the better part of a minute, so huge designs drop to ``-O0`` (within
#: ~20% of -O1 at runtime, compiles in seconds).
BIG_PROGRAM_ROWS = 20_000
BASE_CFLAGS = ("-shared", "-fPIC")


def _cflags(num_records: int):
    level = "-O0" if num_records > BIG_PROGRAM_ROWS else "-O1"
    return (level, *BASE_CFLAGS)

#: Bump when the emitted source or ABI changes shape: it enters the
#: ``cbin`` cache key, so stale shared objects never load.
SOURCE_SCHEMA = 1


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
    """Compile ``source`` with ``cc`` and return the shared-object bytes."""
    if flags is None:
        flags = ("-O1", *BASE_CFLAGS)
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as workdir:
        src = os.path.join(workdir, "comb.c")
        out = os.path.join(workdir, "comb.so")
        with open(src, "w") as handle:
            handle.write(source)
        result = subprocess.run(
            [cc, *flags, "-o", out, src],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            detail = (result.stderr or result.stdout or "").strip()
            raise CBackendUnavailable(
                f"{cc} failed (rc={result.returncode}): {detail[:2000]}"
            )
        with open(out, "rb") as handle:
            return handle.read()


class CompiledComb:
    """A loaded compiled combinational pass: ``comb(plane)`` evaluates
    every lane of a C-contiguous ``(num_slots, B)`` uint64 plane in
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
                library = ctypes.CDLL(path)
            except OSError as error:  # e.g. noexec tmp mount
                raise CBackendUnavailable(
                    f"cannot load compiled kernel: {error}"
                ) from error
        self._fn = library.repro_eval_comb
        self._fn.argtypes = [ctypes.POINTER(ctypes.c_uint64), ctypes.c_int64]
        self._fn.restype = None
        self._library = library

    def __call__(self, plane) -> None:
        if not plane.flags["C_CONTIGUOUS"]:
            raise ValueError("compiled kernel needs a C-contiguous plane")
        pointer = plane.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))
        self._fn(pointer, plane.shape[1])


def _cbin_digest(program: OimProgram) -> str:
    """The ``cbin`` cache key: same program + same host shape + same
    flags -> same shared object.  The compiler *name* stays out so a
    cc/gcc alias switch doesn't force a recompile; SOURCE_SCHEMA bumps
    do."""
    hasher = hashlib.sha256()
    for part in (
        program.fingerprint,
        platform.machine(),
        sys.platform,
        _cflags(program.num_records),
        SOURCE_SCHEMA,
    ):
        hasher.update(repr(part).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


#: Loaded kernels by cbin digest: every kernel instance for a design in
#: one process shares one mapped shared object.
_MEMO: Dict[str, CompiledComb] = {}


def compiled_comb(bundle) -> CompiledComb:
    """The compiled combinational pass for ``bundle``'s program.

    Resolution order: in-process memo, then the artifact cache's
    ``cbin`` entry (a warm start needs no toolchain at all), then a
    fresh emit+compile (cached for the next process).  Raises
    :class:`ToolchainUnavailable` / :class:`CBackendUnavailable` when
    neither a cached object nor a compiler is available.
    """
    from ..serve import artifacts
    from .program import cached_program

    program = cached_program(bundle)
    digest = _cbin_digest(program)
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
                "override) and no cached compiled kernel for this design"
            )
        so_bytes = compile_shared_object(
            emit_c(program), cc, _cflags(program.num_records)
        )
        if cache is not None:
            cache.put("cbin", digest, {"so": so_bytes, "cc": os.path.basename(cc)})
    comb = CompiledComb(so_bytes, program.fingerprint)
    _MEMO[digest] = comb
    return comb
