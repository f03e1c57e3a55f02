"""Tests for the compiled C batch backend (:mod:`repro.lower.cbackend`):
registry-wide lockstep against the scalar reference, the ``cbin``
warm-start path (no recompilation), graceful fallback without a
toolchain, the emitted source's structural invariants, and the loaded
object leaving nothing behind in the temp directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.batch import BatchSimulator, HAS_NUMPY
from repro.batch.backend import supports_u64
from repro.designs.registry import compile_named_design
from repro.lower.cbackend import emit_c, find_compiler, has_toolchain
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
            spec_from_name("batch-su"),
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
        assert not hasattr(batch.kernel, "compiled_fallback")


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
        # The walk, not the SU codegen kernel: degrading to the slower
        # NumPy kernel would be degrading twice.
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
# The cbin artifact: warm starts skip the compiler
# ----------------------------------------------------------------------
_WARM_CHILD = """\
import sys
import repro.lower.cbackend as cbackend

compiles = []
original = cbackend.compile_shared_object
def counting(source, cc, flags=None):
    compiles.append(cc)
    return original(source, cc, flags)
cbackend.compile_shared_object = counting

from repro.serve.artifacts import configure_cache
configure_cache(sys.argv[1])
from repro.designs.registry import compile_named_design
comb = cbackend.compiled_comb(compile_named_design("small-1"))
assert comb is not None
print("COMPILES=%d" % len(compiles))
"""


@needs_numpy
@needs_cc
class TestCbinWarmStart:
    def test_second_process_loads_cached_cbin(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT
        runs = []
        for _ in range(2):
            child = subprocess.run(
                [sys.executable, "-c", _WARM_CHILD, str(tmp_path)],
                capture_output=True, text=True, env=env,
            )
            assert child.returncode == 0, child.stderr
            runs.append(child.stdout.strip())
        assert runs[0] == "COMPILES=1", runs
        assert runs[1] == "COMPILES=0", runs  # warm start: cbin cache hit
        cbins = list(Path(tmp_path).glob("cbin-*.pkl"))
        assert len(cbins) == 1

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
