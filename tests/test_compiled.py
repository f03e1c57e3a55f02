"""Tests for the compiled C batch backend (:mod:`repro.lower.cbackend`):
registry-wide lockstep against the scalar reference, one compile per
host for every design and shard worker, the ``cbin`` warm-start path
(no recompilation), the plane checks in front of the C call, graceful
fallback without a toolchain, the straight-line source's structural
invariants, and the loaded object leaving nothing behind in the temp
directory."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch import BatchSimulator, HAS_NUMPY
from repro.batch.backend import supports_u64
from repro.designs.registry import compile_named_design
from repro.lower.cbackend import (
    data_kernel_source, emit_c, find_compiler, has_toolchain,
)
from repro.lower.program import cached_program

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
needs_cc = pytest.mark.skipif(
    not has_toolchain(), reason="no C toolchain on this host"
)

#: Small u64-plane registry designs the compiled arm must track bit-exactly.
U64_DESIGNS = ("rocket-1", "small-1", "gemmini-8")


# ----------------------------------------------------------------------
# Toolchain detection
# ----------------------------------------------------------------------
class TestToolchainDetection:
    def test_env_override_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "")
        assert find_compiler() is None
        assert not has_toolchain()

    def test_env_override_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/opt/toolchain/bin/cc")
        assert find_compiler() == "/opt/toolchain/bin/cc"


# ----------------------------------------------------------------------
# Emitted source invariants (no toolchain needed)
# ----------------------------------------------------------------------
class TestEmittedSource:
    def test_source_structure(self):
        program = cached_program(compile_named_design("small-1"))
        source = emit_c(program)
        assert "void repro_eval_comb(uint64_t *V, int64_t n)" in source
        assert "static void chunk_0" in source
        # Every record stores its slot row; spot-check the count.
        assert source.count("V[(int64_t)") >= program.num_records

    def test_source_is_deterministic(self):
        program = cached_program(compile_named_design("small-1"))
        assert emit_c(program) == emit_c(program)


# ----------------------------------------------------------------------
# Lockstep: compiled arm vs the full engine matrix
# ----------------------------------------------------------------------
@needs_numpy
@needs_cc
class TestCompiledLockstep:
    @pytest.mark.parametrize("design", U64_DESIGNS)
    def test_registry_lockstep(self, design):
        from repro.verify.differential import (
            run_differential_suite, spec_from_name,
        )

        assert supports_u64(compile_named_design(design))
        engines = [
            spec_from_name("scalar"),
            spec_from_name("batch-u64"),
            spec_from_name("batch-compiled"),
            spec_from_name("shard-compiled"),
        ]
        for result in run_differential_suite(
            design, seeds=(0, 1), lanes=3, cycles=12, engines=engines
        ):
            assert result.ok, result.summary()

    def test_kernel_identifies_as_compiled(self):
        batch = BatchSimulator(
            compile_named_design("small-1"), lanes=4,
            kernel="compiled", backend="u64",
        )
        assert batch.kernel.style == "compiled"
        assert batch.kernel.name == "compiledx4[u64]"
        assert not hasattr(batch.kernel, "compiled_fallback")

    def test_one_source_whatever_the_design(self):
        """Every design loads the same rolled kernel: the source has no
        design in it, only the tables do."""
        digest = hashlib.sha256(data_kernel_source().encode()).hexdigest()
        for design in U64_DESIGNS:
            batch = BatchSimulator(
                compile_named_design(design), lanes=2,
                kernel="compiled", backend="u64",
            )
            assert batch.kernel._comb.fingerprint == digest, design


# ----------------------------------------------------------------------
# The plane is checked before its pointer crosses into C
# ----------------------------------------------------------------------
@needs_numpy
@needs_cc
class TestPlaneValidation:
    @pytest.mark.parametrize("bad", ["short", "float64", "fortran"])
    def test_bad_plane_never_reaches_c(self, bad, monkeypatch):
        import numpy as np

        batch = BatchSimulator(
            compile_named_design("gemmini-8"), lanes=4,
            kernel="compiled", backend="u64",
        )
        calls = []
        monkeypatch.setattr(batch.kernel._tables, "_fn", lambda *args: calls.append(args))
        plane = {
            "short": lambda: batch.values[:-1].copy(),
            "float64": lambda: batch.values.astype(np.float64),
            "fortran": lambda: np.asfortranarray(batch.values),
        }[bad]()
        with pytest.raises(ValueError, match="uint64 plane of shape"):
            batch.kernel.eval_comb(plane)
        assert not calls
        batch.kernel.eval_comb(batch.values)
        assert len(calls) == 1  # the plane the tables were built for passes


# ----------------------------------------------------------------------
# Fallback when the backend or toolchain cannot serve the compiled path
# ----------------------------------------------------------------------
@needs_numpy
class TestCompiledFallback:
    def test_no_toolchain_falls_back_to_walk(self, monkeypatch):
        import repro.lower.cbackend as cbackend

        monkeypatch.setenv("REPRO_CC", "")
        monkeypatch.setattr(cbackend, "_MEMO", {})  # defeat in-process memo
        batch = BatchSimulator(
            compile_named_design("small-1"), lanes=2,
            kernel="compiled", backend="u64",
        )
        assert batch.kernel.style == "walk"
        assert "no C compiler" in batch.kernel.compiled_fallback
        batch.poke("reset", 1)
        batch.step(2)  # the fallback kernel must actually simulate

    def test_wide_backend_falls_back(self):
        # sha3 needs u64xN limb planes; the compiled pass is u64-only.
        batch = BatchSimulator(
            compile_named_design("sha3"), lanes=2, kernel="compiled"
        )
        assert batch.kernel.style == "walk"
        assert "u64" in batch.kernel.compiled_fallback


# ----------------------------------------------------------------------
# One compile per host; the cbin artifact: warm starts skip the compiler
# ----------------------------------------------------------------------
#: ``argv``: cache dir (``-`` for none), compile log, designs to build
#: (``name/P2`` is a two-partition process-executor shard).  Every
#: ``compile_shared_object`` call appends a line to the log -- forked
#: shard workers inherit the patch, so theirs are counted too.
_COUNTING_CHILD = """\
import sys
import repro.lower.cbackend as cbackend

original = cbackend.compile_shared_object
def counting(source, cc, flags=None):
    with open(sys.argv[2], "a") as log:
        log.write("compile\\n")
    return original(source, cc, flags)
cbackend.compile_shared_object = counting

from repro.serve.artifacts import configure_cache
if sys.argv[1] != "-":
    configure_cache(sys.argv[1])
from repro.batch import BatchSimulator
from repro.designs.registry import compile_named_design, compiled_graph
from repro.shard.simulator import ShardedBatchSimulator

for design in sys.argv[3].split(","):
    if design.endswith("/P2"):
        with ShardedBatchSimulator(
            compiled_graph(design[:-3]), lanes=2, num_partitions=2,
            kernel="compiled", executor="process",
        ) as sim:
            sim.step(2)
            assert set(sim.describe_partitions()) == {"u64/compiled"}
    else:
        sim = BatchSimulator(
            compile_named_design(design), lanes=2, kernel="compiled", backend="u64"
        )
        assert sim.kernel.style == "compiled"
        sim.step(2)
"""


def _compiles(cache, designs, log):
    """Run :data:`_COUNTING_CHILD`; the number of compiles it logged."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = SRC_ROOT
    child = subprocess.run(
        [sys.executable, "-c", _COUNTING_CHILD, str(cache), str(log), designs],
        capture_output=True, text=True, env=env,
    )
    assert child.returncode == 0, child.stderr
    return len(log.read_text().splitlines()) if log.exists() else 0


@needs_numpy
@needs_cc
class TestOneCompilePerHost:
    def test_three_designs_one_compile(self, tmp_path):
        cache = tmp_path / "cache"
        log = tmp_path / "compiles.log"
        assert _compiles(cache, "rocket-1,gemmini-8,small-1", log) == 1
        assert len(list(cache.glob("cbin-*.pkl"))) == 1

    def test_process_workers_inherit_the_kernel(self, tmp_path):
        """No artifact cache at all: a worker that did not inherit the
        coordinator's loaded kernel would have to compile its own."""
        log = tmp_path / "compiles.log"
        assert _compiles("-", "gemmini-8/P2", log) == 1


@needs_numpy
@needs_cc
class TestCbinWarmStart:
    def test_second_process_loads_cached_cbin(self, tmp_path):
        cache = tmp_path / "cache"
        assert _compiles(cache, "small-1", tmp_path / "cold.log") == 1
        # Warm start, another design: the one cbin entry serves it.
        assert _compiles(cache, "gemmini-8", tmp_path / "warm.log") == 0
        assert len(list(cache.glob("cbin-*.pkl"))) == 1

    def test_warm_kernel_still_bit_exact(self, tmp_path, rng):
        """A kernel reloaded from cbin bytes must simulate identically."""
        from repro.serve.artifacts import configure_cache, disable_cache
        from repro.sim import Simulator

        source_design = compile_named_design("small-1")
        try:
            configure_cache(tmp_path)
            import repro.lower.cbackend as cbackend

            cbackend._MEMO.clear()  # force the cache load path next time
            cold = BatchSimulator(
                source_design, lanes=2, kernel="compiled", backend="u64"
            )
            assert cold.kernel.style == "compiled"
            cbackend._MEMO.clear()
            warm = BatchSimulator(
                source_design, lanes=2, kernel="compiled", backend="u64"
            )
            assert warm.kernel.style == "compiled"
            scalar = Simulator(source_design)
            for _ in range(8):
                instr = rng.randrange(1 << 16)
                for sim in (cold, warm, scalar):
                    sim.poke("reset", 0)
                    sim.poke("instr", instr)
                for name in ("out", "dmi_resp_valid"):
                    want = scalar.peek(name)
                    assert cold.peek(name) == [want] * 2
                    assert warm.peek(name) == [want] * 2
                cold.step()
                warm.step()
                scalar.step()
        finally:
            disable_cache()


# ----------------------------------------------------------------------
# The loaded object leaves nothing in the temp directory
# ----------------------------------------------------------------------
_SHARD_CHILD = """\
import os, sys, tempfile
from repro.designs.registry import compiled_graph
from repro.shard.simulator import ShardedBatchSimulator

def leftovers():
    return sorted(n for n in os.listdir(tempfile.gettempdir()) if n.startswith("repro-cbin-"))

sim = ShardedBatchSimulator(
    compiled_graph("gemmini-8"), lanes=2, num_partitions=2,
    kernel="compiled", executor="process",
)
sim.step(2)
print("KERNELS=%s" % sorted(set(sim.describe_partitions())))
print("OPEN=%s" % leftovers())
sim.close()
print("CLOSED=%s" % leftovers())
"""


@needs_numpy
@needs_cc
class TestNoTempDirLeft:
    def test_process_shard_workers_leave_no_cbin_dir(self, tmp_path):
        """A forked shard worker never runs ``atexit`` handlers, so the
        ``.so`` directory must be gone as soon as the object is mapped."""
        env = dict(os.environ, PYTHONPATH=SRC_ROOT, TMPDIR=str(tmp_path))
        child = subprocess.run(
            [sys.executable, "-c", _SHARD_CHILD],
            capture_output=True, text=True, env=env,
        )
        assert child.returncode == 0, child.stderr
        lines = dict(line.split("=", 1) for line in child.stdout.splitlines())
        assert "compiled" in lines["KERNELS"], lines
        assert lines["OPEN"] == "[]" and lines["CLOSED"] == "[]", lines
        assert not list(tmp_path.glob("repro-cbin-*"))

    def test_unloadable_object_cleans_up(self, tmp_path, monkeypatch):
        """What a ``noexec`` temp mount does: ``dlopen`` fails, the
        backend reports itself unavailable, the directory is removed."""
        import tempfile

        from repro.lower.cbackend import CBackendUnavailable, CompiledComb

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(CBackendUnavailable, match="cannot load"):
            CompiledComb(b"not a shared object", "fingerprint")
        assert not list(tmp_path.iterdir())
