"""Tests for the split-limb ``u64xN`` backend: lockstep equivalence with
the scalar simulator at the 63/64/65/128-bit boundary widths, randomized
operator fuzz at 63/64/65/127/128/129 bits against a Python big-int
reference, sha3 bit-exactness on the fast path (batch and shard
engines), checkpointing, ``poke_row`` validation, the popcount fallback,
and the perf gate's missing/zero-metric handling."""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.batch import BatchSimulator, HAS_NUMPY, pick_backend
from repro.batch.backend import (
    BACKENDS,
    alloc_values,
    combine_limbs,
    limb_layout,
    limbs_for_width,
    popcount_parity,
    split_limbs,
    supports_u64,
)
from repro.designs import keccak_f_reference, sha3_soc
from repro.designs.registry import compile_named_design, compiled_graph
from repro.designs.sha3 import NUM_ROUNDS, round_constants_for_step
from repro.shard import ShardedBatchSimulator
from repro.sim import Simulator

#: Both run the batch walk; the lockstep cases hold it against the scalar
#: kernel of the same name, so ``SU`` checks it against the scalar
#: unrolled (generated-code) kernel.
KERNELS = ("PSU", "SU")
BOUNDARY_WIDTHS = (63, 64, 65, 128)


def wide_alu_src(width: int) -> str:
    """An op-heavy design whose slot widths straddle ``width``.

    Exercises carry/borrow arithmetic, multi-limb multiply/divide,
    comparisons, reductions, data-dependent cross-limb shifts, cat/bits
    and mux at the requested width (intermediates grow wider still:
    ``add`` to width+1, ``mul`` to 2*width).
    """
    shift_width = max(1, min(8, width.bit_length()))
    return f"""circuit WideAlu :
  module WideAlu :
    input clock : Clock
    input a : UInt<{width}>
    input b : UInt<{width}>
    input s : UInt<{shift_width}>
    output o_add : UInt<{width}>
    output o_sub : UInt<{width}>
    output o_mul : UInt<{width}>
    output o_div : UInt<{width}>
    output o_rem : UInt<{width}>
    output o_cmp : UInt<6>
    output o_red : UInt<3>
    output o_dshl : UInt<{width}>
    output o_dshr : UInt<{width}>
    output o_cat : UInt<8>
    output o_mux : UInt<{width}>
    output o_acc : UInt<{width}>
    reg acc : UInt<{width}>, clock
    node t_add = tail(add(a, b), 1)
    node t_sub = tail(sub(a, b), 1)
    node t_mul = bits(mul(a, b), {width - 1}, 0)
    node t_not = not(a)
    o_add <= t_add
    o_sub <= t_sub
    o_mul <= t_mul
    o_div <= div(a, b)
    o_rem <= rem(a, b)
    o_cmp <= cat(lt(a, b), cat(leq(a, b), cat(gt(a, b), cat(geq(a, b), cat(eq(a, b), neq(a, b))))))
    o_red <= cat(andr(a), cat(orr(a), xorr(a)))
    o_dshl <= bits(dshl(a, s), {width - 1}, 0)
    o_dshr <= dshr(a, s)
    o_cat <= cat(head(a, 4), bits(a, 3, 0))
    o_mux <= mux(eq(a, b), t_not, xor(a, b))
    acc <= tail(add(acc, xor(a, t_mul)), 1)
    o_acc <= acc
"""


WIDE_OUTPUTS = (
    "o_add", "o_sub", "o_mul", "o_div", "o_rem", "o_cmp", "o_red",
    "o_dshl", "o_dshr", "o_cat", "o_mux", "o_acc",
)


def boundary_stimulus(rng, width: int, lanes: int):
    """Random lane values biased toward carry/borrow corner cases."""
    corners = (0, 1, (1 << width) - 1, 1 << (width - 1), (1 << 64) - 1 if width > 64 else (1 << width) - 1)
    return [
        rng.choice(corners) if rng.random() < 0.3 else rng.randrange(1 << width)
        for _ in range(lanes)
    ]


def assert_wide_lockstep(width, kernel, backend, rng, lanes=3, cycles=8):
    source = wide_alu_src(width)
    shift_width = max(1, min(8, width.bit_length()))
    batch = BatchSimulator(source, lanes=lanes, kernel=kernel, backend=backend)
    scalars = [Simulator(source, kernel=kernel) for _ in range(lanes)]
    for cycle in range(cycles):
        a = boundary_stimulus(rng, width, lanes)
        b = boundary_stimulus(rng, width, lanes)
        s = [rng.randrange(1 << shift_width) for _ in range(lanes)]
        for name, values in (("a", a), ("b", b), ("s", s)):
            batch.poke(name, values)
            for lane, scalar in enumerate(scalars):
                scalar.poke(name, values[lane])
        for name in WIDE_OUTPUTS:
            got = batch.peek(name)
            want = [scalar.peek(name) for scalar in scalars]
            assert got == want, (
                f"w={width}/{kernel}/{backend}: divergence on {name!r} at "
                f"cycle {cycle}: {got} != {want}"
            )
        batch.step()
        for scalar in scalars:
            scalar.step()
    return batch


# ----------------------------------------------------------------------
# Limb plumbing
# ----------------------------------------------------------------------
class TestLimbLayout:
    def test_limbs_for_width(self):
        assert [limbs_for_width(w) for w in (0, 1, 63, 64, 65, 128, 129)] == [
            1, 1, 1, 1, 2, 2, 3,
        ]

    def test_split_combine_roundtrip(self, rng):
        for width in BOUNDARY_WIDTHS:
            count = limbs_for_width(width)
            for _ in range(16):
                value = rng.randrange(1 << width)
                assert combine_limbs(split_limbs(value, count)) == value

    def test_layout_offsets(self):
        bundle = compile_named_design("sha3")
        layout = limb_layout(bundle)
        assert layout.total_rows == sum(layout.limbs)
        assert layout.total_rows > bundle.num_slots  # sha3 has 65-bit slots
        for slot in range(bundle.num_slots):
            piece = layout.slices[slot]
            assert piece.stop - piece.start == layout.limbs[slot]
            assert piece.start == layout.offsets[slot]


class TestOneNumpyPlane:
    """``u64`` is the one-limb case of ``u64xN``: one allocator, one
    layout, and no third NumPy plane."""

    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    def test_narrow_design_planes_are_equal(self, mixed_bundle):
        assert supports_u64(mixed_bundle)
        layout = limb_layout(mixed_bundle)
        assert layout.offsets == list(range(mixed_bundle.num_slots))
        assert layout.total_rows == mixed_bundle.num_slots
        plain = alloc_values(mixed_bundle, 3, "u64")
        limbed = alloc_values(mixed_bundle, 3, "u64xN")
        assert plain.dtype == limbed.dtype and plain.shape == limbed.shape
        assert (plain == limbed).all()
        assert plain.any()  # register inits / constants made it in

    def test_one_wide_slot_keeps_narrow_slots_at_one_row(self):
        bundle = Simulator(wide_alu_src(65)).bundle
        layout = limb_layout(bundle)
        wide = [slot for slot, width in enumerate(bundle.slot_width) if width > 64]
        assert wide and len(wide) < bundle.num_slots
        for slot, width in enumerate(bundle.slot_width):
            assert layout.limbs[slot] == (1 if width <= 64 else -(-width // 64))
        assert layout.total_rows == sum(layout.limbs)
        assert layout.rows_of(wide[:1]) == [
            layout.offsets[wide[0]] + limb for limb in range(layout.limbs[wide[0]])
        ]

    def test_object_backend_is_gone(self, counter_src):
        assert BACKENDS == ("u64", "u64xN", "python")
        with pytest.raises(KeyError, match="u64, u64xN, python"):
            BatchSimulator(counter_src, lanes=2, backend="object")


class TestBackendSelection:
    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    def test_auto_prefers_limbs_over_object(self):
        """A wide design stays on the NumPy plane; it never degrades to
        the list-of-lists one while NumPy is there."""
        sha3 = compile_named_design("sha3")
        assert not supports_u64(sha3)
        assert pick_backend(sha3, "auto") == "u64xN"
        assert pick_backend(sha3, "python") == "python"  # on request only

    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    def test_u64xn_allowed_on_narrow_design(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2, backend="u64xN")
        assert batch.backend == "u64xN"
        batch.poke("enable", 1)
        batch.step(3)
        assert batch.peek("count") == [3, 3]

    def test_u64xn_without_numpy_raises(self):
        bundle = compile_named_design("rocket-1")
        assert pick_backend(bundle, "auto", np_module=None) == "python"
        with pytest.raises(RuntimeError):
            pick_backend(bundle, "u64xN", np_module=None)


# ----------------------------------------------------------------------
# Boundary-width lockstep equivalence
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
class TestBoundaryWidths:
    @pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_u64xn_lockstep(self, width, kernel, rng):
        batch = assert_wide_lockstep(width, kernel, "u64xN", rng)
        assert batch.backend == "u64xN"

    def test_u64_vs_u64xn_on_narrow_design(self, mixed_src, rng):
        """On a design that fits u64, both native backends agree lane-wise."""
        lanes = 3
        plain = BatchSimulator(mixed_src, lanes=lanes, backend="u64")
        limbed = BatchSimulator(mixed_src, lanes=lanes, backend="u64xN")
        assert plain.backend == "u64" and limbed.backend == "u64xN"
        for cycle in range(12):
            a = [rng.randrange(256) for _ in range(lanes)]
            b = [rng.randrange(256) for _ in range(lanes)]
            for sim in (plain, limbed):
                sim.poke("a", a)
                sim.poke("b", b)
            for name in ("out", "flag"):
                assert plain.peek(name) == limbed.peek(name)
            plain.step()
            limbed.step()


class TestPythonFallbackWide:
    def test_python_backend_wide_lockstep(self, rng):
        """The NumPy-free fallback handles >64-bit designs too (unbounded
        Python ints), so the subsystem stays complete offline."""
        batch = assert_wide_lockstep(65, "PSU", "python", rng, cycles=4)
        assert batch.backend == "python"


@pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
class TestSha3FastPath:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batched_keccak_matches_reference(self, kernel, rng):
        """Full 24-round permutations, one random state per lane, on the
        split-limb fast path."""
        lanes, rpc = 2, 4
        batch = BatchSimulator(sha3_soc(64, rpc), lanes=lanes, kernel=kernel)
        assert batch.backend == "u64xN"
        states = [
            [rng.randrange(1 << 64) for _ in range(25)] for _ in range(lanes)
        ]
        for idx in range(25):
            batch.poke("absorb_valid", 1)
            batch.poke("absorb_idx", idx)
            batch.poke("absorb_lane", [state[idx] for state in states])
            batch.step()
        batch.poke("absorb_valid", 0)
        batch.poke("start", 1)
        batch.step()
        batch.poke("start", 0)
        for step in range(NUM_ROUNDS // rpc):
            for position, rc in enumerate(round_constants_for_step(step, 64, rpc)):
                batch.poke(f"rc{position}", rc)
            batch.step()
        for lane in range(lanes):
            got = [batch.peek(f"s_{x}_{y}")[lane] for y in range(5) for x in range(5)]
            assert got == keccak_f_reference(states[lane], 64)
        assert batch.peek("done") == [1] * lanes

    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_sharded_sha3_stays_on_fast_path(self, executor, rng):
        """Sharded wide design: partitions resolve to native-width planes
        (u64 or u64xN, never python) and stay bit-exact vs scalar."""
        graph = compiled_graph("sha3")
        bundle = compile_named_design("sha3")
        lanes = 2
        scalars = [Simulator(bundle) for _ in range(lanes)]
        from repro.workloads.stimulus import batched_workload_for

        workload = batched_workload_for("sha3", lanes)
        with ShardedBatchSimulator(
            graph, lanes=lanes, num_partitions=2, executor=executor
        ) as shard:
            backends = [desc.split("/")[0] for desc in shard.describe_partitions()]
            assert all(backend in ("u64", "u64xN") for backend in backends)
            assert "u64xN" in backends  # the 65-bit slots live somewhere
            for cycle in range(8):
                workload.apply(shard, cycle)
                for lane, scalar in enumerate(scalars):
                    workload.lane(lane).apply(scalar, cycle)
                for name in ("digest", "done", "round_out"):
                    assert shard.peek(name) == [s.peek(name) for s in scalars]
                shard.step()
                for scalar in scalars:
                    scalar.step()


# ----------------------------------------------------------------------
# Width-boundary operator fuzz against a Python big-int reference
# ----------------------------------------------------------------------
def wide_reference(width: int, a: int, b: int, s: int, acc: int):
    """FIRRTL semantics of :func:`wide_alu_src`, in unbounded Python ints.

    An independent oracle: no simulator involved, so a systematic limb-
    kernel bug cannot hide behind a matching scalar-simulator bug.
    Returns ``(outputs, next_acc)`` for one cycle.
    """
    m = (1 << width) - 1
    mul = (a * b) & m
    outputs = {
        "o_add": (a + b) & m,
        "o_sub": (a - b) & m,
        "o_mul": mul,
        # FIRRTL leaves x/0 undefined; the repo picks 0 (see primops).
        "o_div": a // b if b else 0,
        "o_rem": a % b if b else 0,
        "o_cmp": (
            (int(a < b) << 5) | (int(a <= b) << 4) | (int(a > b) << 3)
            | (int(a >= b) << 2) | (int(a == b) << 1) | int(a != b)
        ),
        "o_red": (
            (int(a == m) << 2) | (int(a != 0) << 1)
            | (bin(a).count("1") & 1)
        ),
        "o_dshl": (a << s) & m,
        "o_dshr": a >> s,
        "o_cat": ((a >> (width - 4)) << 4) | (a & 0xF),
        "o_mux": (~a) & m if a == b else a ^ b,
        "o_acc": acc,
    }
    return outputs, (acc + (a ^ mul)) & m


class TestWidthBoundaryFuzz:
    """Randomized operands at the limb-boundary widths through the
    div/rem/shift/cat/comparison kernels, checked against
    :func:`wide_reference` (satellite: width-boundary operator fuzz).

    ``REPRO_FUZZ_CYCLES`` raises the per-width iteration budget (the
    nightly CI fuzz job sets it)."""

    WIDTHS = (63, 64, 65, 127, 128, 129)
    LANES = 4

    @pytest.mark.parametrize("width", WIDTHS)
    def test_bigint_reference_fuzz(self, width, rng):
        cycles = int(os.environ.get("REPRO_FUZZ_CYCLES", "0")) or 12
        backend = "u64xN" if HAS_NUMPY else "python"
        batch = BatchSimulator(
            wide_alu_src(width), lanes=self.LANES, backend=backend
        )
        shift_width = max(1, min(8, width.bit_length()))
        shift_max = (1 << shift_width) - 1
        accs = [0] * self.LANES
        for cycle in range(cycles):
            a = boundary_stimulus(rng, width, self.LANES)
            b = boundary_stimulus(rng, width, self.LANES)
            s = [rng.randrange(1 << shift_width) for _ in range(self.LANES)]
            if cycle == 0:
                b[0] = 0          # force the div/rem-by-zero path
                s[1] = shift_max  # force an over-width dynamic shift
            for name, values in (("a", a), ("b", b), ("s", s)):
                batch.poke(name, values)
            expected = []
            for lane in range(self.LANES):
                outputs, accs[lane] = wide_reference(
                    width, a[lane], b[lane], s[lane], accs[lane]
                )
                expected.append(outputs)
            for name in WIDE_OUTPUTS:
                got = batch.peek(name)
                want = [expected[lane][name] for lane in range(self.LANES)]
                assert got == want, (
                    f"w={width}/{backend}: {name!r} diverges from the "
                    f"big-int reference at cycle {cycle}: {got} != {want} "
                    f"(a={a}, b={b}, s={s})"
                )
            batch.step()


@pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
class TestVectorisedDivision:
    """Direct fuzz of the u64xN restoring-division evaluators at mixed
    operand widths (``wide_alu_src`` only ever divides equals-by-equals),
    against unbounded Python ints."""

    CASES = (
        (65, 65), (127, 64), (128, 65), (129, 129), (129, 1), (66, 130),
    )

    def _matrix(self, np, values, width):
        count = limbs_for_width(width)
        return np.array(
            [split_limbs(value, count) for value in values], dtype=np.uint64
        ).T

    def _ints(self, matrix):
        return [
            combine_limbs([int(matrix[row, lane]) for row in range(matrix.shape[0])])
            for lane in range(matrix.shape[1])
        ]

    @pytest.mark.parametrize("wa,wb", CASES)
    def test_divmod_matches_bigint(self, wa, wb, rng):
        import numpy as np

        from repro.batch.vecsem import make_limb_table

        table = make_limb_table(np)
        lanes = 5
        for _ in range(6):
            a = [rng.randrange(1 << wa) for _ in range(lanes)]
            b = [rng.randrange(1 << wb) for _ in range(lanes)]
            a[0] = (1 << wa) - 1
            b[1] = 0  # the zero-divisor lane must yield (0, 0)
            b[2] = 1
            am, bm = self._matrix(np, a, wa), self._matrix(np, b, wb)
            quo = table["div"]([am, bm], (wa, wb), wa)
            rem = table["rem"]([am, bm], (wa, wb), min(wa, wb))
            want_q = [x // y if y else 0 for x, y in zip(a, b)]
            want_r = [x % y if y else 0 for x, y in zip(a, b)]
            assert self._ints(quo) == want_q, (wa, wb, a, b)
            assert self._ints(rem) == want_r, (wa, wb, a, b)


# ----------------------------------------------------------------------
# Checkpointing on the limb plane
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
class TestLimbCheckpointing:
    SRC = wide_alu_src(65)

    def _driven(self, lanes=2, cycles=3):
        batch = BatchSimulator(self.SRC, lanes=lanes)
        batch.poke("a", [(1 << 65) - 1, 12345])
        batch.poke("b", [7, (1 << 64) + 1])
        batch.poke("s", 3)
        batch.step(cycles)
        return batch

    def test_snapshot_roundtrip(self):
        batch = self._driven()
        checkpoint = batch.snapshot()
        before = batch.peek("o_acc")
        batch.poke("a", 1)
        batch.step(4)
        assert batch.peek("o_acc") != before
        batch.restore(checkpoint)
        assert batch.cycle == 3
        assert batch.peek("o_acc") == before

    def test_snapshot_rejects_other_backend(self):
        batch = self._driven()
        other = BatchSimulator(self.SRC, lanes=2, backend="python")
        with pytest.raises(ValueError):
            other.restore(batch.snapshot())

    def test_export_import_is_backend_portable(self):
        """Exported state is slot-indexed ints: a u64xN plane reloads
        into a python-backend simulator bit-exactly."""
        batch = self._driven()
        rows, cycle = batch.export_state()
        assert len(rows) == batch.bundle.num_slots  # slot-indexed, not limb rows
        other = BatchSimulator(self.SRC, lanes=2, backend="python")
        other.import_state(rows, cycle)
        for name in WIDE_OUTPUTS:
            assert other.peek(name) == batch.peek(name)
        reloaded = BatchSimulator(self.SRC, lanes=2)
        reloaded.import_state(rows, cycle)
        for name in WIDE_OUTPUTS:
            assert reloaded.peek(name) == batch.peek(name)

    def test_sharded_wide_snapshot_roundtrip(self):
        source = wide_alu_src(128)
        with ShardedBatchSimulator(source, lanes=2, num_partitions=2) as shard:
            shard.poke("a", [(1 << 128) - 1, 99])
            shard.poke("b", [5, (1 << 127) + 3])
            shard.poke("s", 2)
            shard.step(3)
            checkpoint = shard.snapshot()
            before = shard.peek("o_acc")
            shard.step(4)
            assert shard.peek("o_acc") != before
            shard.restore(checkpoint)
            assert shard.peek("o_acc") == before


# ----------------------------------------------------------------------
# poke_row validation (RUM exchange hardening)
# ----------------------------------------------------------------------
class TestPokeRowValidation:
    def test_over_width_value_rejected(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2)
        with pytest.raises(ValueError, match="does not fit"):
            batch.poke_row("enable", [1, 2])  # enable is 1 bit

    def test_negative_value_rejected(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2)
        with pytest.raises(ValueError, match="does not fit"):
            batch.poke_row("enable", [0, -1])

    def test_wrong_lane_count_rejected(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2)
        with pytest.raises(ValueError):
            batch.poke_row("enable", [1])

    def test_masked_row_accepted(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2)
        batch.poke_row("enable", [1, 0])
        batch.step()
        assert batch.peek("count") == [1, 0]

    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    def test_wide_row_boundary(self):
        batch = BatchSimulator(wide_alu_src(65), lanes=2)
        batch.poke_row("a", [(1 << 65) - 1, 0])  # exactly in range
        with pytest.raises(ValueError, match="does not fit"):
            batch.poke_row("a", [1 << 65, 0])


# ----------------------------------------------------------------------
# Shared popcount fallback
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
class TestPopcountParity:
    class _NoBitwiseCount:
        """A numpy facade without ``bitwise_count`` (older NumPy)."""

        def __init__(self, np):
            self._np = np

        def __getattr__(self, name):
            if name == "bitwise_count":
                raise AttributeError(name)
            return getattr(self._np, name)

    def test_fallback_is_bit_exact_on_uint64(self, rng):
        import numpy as np

        shim = self._NoBitwiseCount(np)
        assert not hasattr(shim, "bitwise_count")
        fallback = popcount_parity(shim)
        native = popcount_parity(np)
        samples = [0, 1, (1 << 64) - 1, 0x8000000000000000] + [
            rng.randrange(1 << 64) for _ in range(64)
        ]
        values = np.array(samples, dtype=np.uint64)
        expected = [bin(value).count("1") & 1 for value in samples]
        assert fallback(values).tolist() == expected
        assert native(values).tolist() == expected
        assert fallback(values).dtype == np.uint64


# ----------------------------------------------------------------------
# Perf gate: missing/zero metrics and backend-keyed rows
# ----------------------------------------------------------------------
def _load_perf_gate():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_gate.py"
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfGate:
    def _payload(self, rows):
        return {"numpy": True, "rows": rows}

    def test_missing_metric_rows_skipped(self, capsys):
        gate = _load_perf_gate()
        baseline = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 100.0},
            {"design": "e", "kernel": "PSU", "lanes": 8, "batch_lane_cps": None},
        ])
        current = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 90.0},
            {"design": "e", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 80.0},
        ])
        assert gate.gate(baseline, current, factor=5.0) == 0
        output = capsys.readouterr().out
        assert "skip" in output and "design=e" in output

    def test_zero_baseline_metric_skipped(self):
        gate = _load_perf_gate()
        baseline = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 0.0},
        ])
        current = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 10.0},
        ])
        # Must not divide by the zero baseline -- row is skipped, gate passes.
        assert gate.gate(baseline, current, factor=5.0) == 0

    def test_zero_current_metric_skipped(self):
        gate = _load_perf_gate()
        baseline = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 100.0},
        ])
        current = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 0},
        ])
        assert gate.gate(baseline, current, factor=5.0) == 0

    def test_backend_is_part_of_row_identity(self):
        gate = _load_perf_gate()
        fast = {"design": "sha3", "kernel": "SU", "lanes": 64,
                "backend": "u64xN", "batch_lane_cps": 30000.0}
        slow = {"design": "sha3", "kernel": "SU", "lanes": 64,
                "backend": "python", "batch_lane_cps": 7000.0}
        assert gate.row_key(fast) != gate.row_key(slow)
        # A u64xN current row must not gate against the python baseline:
        # no comparable rows -> pass.
        assert gate.gate(self._payload([slow]), self._payload([fast]), 5.0) == 0

    def test_regression_still_fails(self):
        gate = _load_perf_gate()
        baseline = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 1000.0},
        ])
        current = self._payload([
            {"design": "d", "kernel": "PSU", "lanes": 8, "batch_lane_cps": 100.0},
        ])
        assert gate.gate(baseline, current, factor=5.0) == 1
