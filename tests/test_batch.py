"""Tests for repro.batch: lane-wise lockstep equivalence with the scalar
simulator, backend selection/fallback, and checkpointing."""

import pytest

from repro.batch import BatchSimulator, HAS_NUMPY, pick_backend
from repro.batch.backend import supports_u64
from repro.designs.registry import compile_named_design
from repro.kernels import ALL_KERNELS
from repro.sim import Simulator
from repro.workloads.stimulus import batched_workload_for

LANES = 3
CYCLES = 24

#: >=3 registry designs; sha3 has 65-bit slots, exercising the split-limb
#: multi-limb rows of the NumPy plane (backend ``u64xN``).
DESIGNS = ("rocket-1", "gemmini-8", "sha3")
#: >=2 kernel configs.  Both run the batch walk; ``assert_lockstep``
#: holds it against the scalar kernel of the same name, so ``SU`` checks
#: the walk against the scalar unrolled (generated-code) kernel.
KERNELS = ("PSU", "SU")


def assert_lockstep(design, kernel, lanes, cycles, backend="auto"):
    """B-lane batch run must be bit-exact with B scalar runs, per cycle."""
    bundle = compile_named_design(design)
    workload = batched_workload_for(design, lanes)
    batch = BatchSimulator(bundle, lanes=lanes, kernel=kernel, backend=backend)
    scalars = [Simulator(bundle, kernel=kernel) for _ in range(lanes)]
    outputs = sorted(set(bundle.output_slots) & set(bundle.signal_slots))
    assert outputs, f"no observable outputs on {bundle.design_name}"
    for cycle in range(cycles):
        workload.apply(batch, cycle)
        for lane, scalar in enumerate(scalars):
            workload.lane(lane).apply(scalar, cycle)
        for name in outputs:
            got = batch.peek(name)
            want = [scalar.peek(name) for scalar in scalars]
            assert got == want, (
                f"{design}/{kernel}/{backend}: lane divergence on {name!r} "
                f"at cycle {cycle}: {got} != {want}"
            )
        batch.step()
        for scalar in scalars:
            scalar.step()
    return batch


class TestLockstepEquivalence:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_registry_designs(self, design, kernel):
        assert_lockstep(design, kernel, LANES, CYCLES)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_python_fallback_backend(self, kernel):
        batch = assert_lockstep("gemmini-8", kernel, LANES, 12, backend="python")
        assert batch.backend == "python"
        assert batch.kernel.style == "python"

    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    def test_backend_auto_selection(self):
        rocket = compile_named_design("rocket-1")
        sha3 = compile_named_design("sha3")
        assert supports_u64(rocket) and not supports_u64(sha3)
        assert BatchSimulator(rocket, lanes=2).backend == "u64"
        # A >64-bit design stays on the vectorised NumPy plane: its wide
        # slots take several limb rows.
        assert BatchSimulator(sha3, lanes=2).backend == "u64xN"
        # One batched NumPy kernel: every scalar config name runs the
        # walk on either plane shape, and the pure-Python walk on the
        # list-of-lists plane.
        for name in [config.name for config in ALL_KERNELS]:
            for bundle in (rocket, sha3):
                assert BatchSimulator(bundle, lanes=2, kernel=name).kernel.style == "walk"
            python = BatchSimulator(sha3, lanes=2, kernel=name, backend="python")
            assert python.backend == "python"
            assert python.kernel.style == "python"

    def test_pick_backend_without_numpy(self):
        bundle = compile_named_design("rocket-1")
        assert pick_backend(bundle, "auto", np_module=None) == "python"
        with pytest.raises(RuntimeError):
            pick_backend(bundle, "u64", np_module=None)

    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    def test_u64_rejected_for_wide_design(self):
        with pytest.raises(ValueError):
            BatchSimulator(compile_named_design("sha3"), lanes=2, backend="u64")

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            BatchSimulator(compile_named_design("rocket-1"), lanes=2, backend="gpu")


class TestBatchApi:
    def test_poke_broadcast_and_vector(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=4)
        batch.poke("enable", 1)                 # broadcast
        batch.step(2)
        assert batch.peek("count") == [2, 2, 2, 2]
        batch.poke("enable", [1, 0, 1, 0])      # per lane
        batch.step()
        assert batch.peek("count") == [3, 2, 3, 2]
        assert batch.peek_lane("count", 1) == 2

    def test_poke_wrong_lane_count(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=4)
        with pytest.raises(ValueError):
            batch.poke("enable", [1, 0])

    def test_poke_unknown_input(self, counter_src):
        with pytest.raises(KeyError):
            BatchSimulator(counter_src, lanes=2).poke("bogus", 1)

    def test_peek_unknown_signal(self, counter_src):
        with pytest.raises(KeyError):
            BatchSimulator(counter_src, lanes=2).peek("bogus")

    def test_peek_returns_python_ints(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2)
        batch.poke("enable", 1)
        batch.step()
        values = batch.peek("count")
        assert all(type(value) is int for value in values)

    def test_lanes_validated(self, counter_src):
        with pytest.raises(ValueError):
            BatchSimulator(counter_src, lanes=0)

    def test_activity_kernel_accepted(self, counter_src):
        """The old 'lanes diverge in activity' guard is retired: the
        batched activity cascade works at any B on any backend."""
        batch = BatchSimulator(counter_src, lanes=2, kernel="activity:PSU")
        assert batch.kernel.style == "activity"
        batch.poke("enable", [1, 0])
        batch.step(3)
        assert batch.peek("count") == [3, 0]
        assert batch.activity_stats.cycles > 0

    def test_reset_preserves_per_lane_pokes(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=3)
        batch.poke("enable", [1, 0, 1])
        batch.step(5)
        batch.reset()
        assert batch.cycle == 0
        assert batch.peek("count") == [0, 0, 0]
        batch.step()
        assert batch.peek("count") == [1, 0, 1]  # pokes survived the reset

    def test_preserve_signals(self, mixed_src):
        batch = BatchSimulator(mixed_src, lanes=2, preserve_signals=True)
        batch.poke("a", [10, 1])
        batch.poke("b", [20, 2])
        assert batch.peek("s") == [30, 3]  # the internal adder node

    def test_repr(self, counter_src):
        text = repr(BatchSimulator(counter_src, lanes=2))
        assert "Counter" in text and "lanes=2" in text


class TestMultiClock:
    SRC = (
        "circuit Dual :\n"
        "  module Dual :\n"
        "    input clock : Clock\n"
        "    input clk2 : Clock\n"
        "    input a : UInt<8>\n"
        "    output fast_out : UInt<8>\n"
        "    output slow_out : UInt<8>\n"
        "    reg fast : UInt<8>, clock\n"
        "    reg slow : UInt<8>, clk2\n"
        "    fast <= a\n"
        "    slow <= fast\n"
        "    fast_out <= fast\n"
        "    slow_out <= slow\n"
    )

    def test_domains_discovered(self):
        assert BatchSimulator(self.SRC, lanes=2).clock_domains == ["clk2", "clock"]

    def test_step_domain_only_commits_that_domain(self):
        batch = BatchSimulator(self.SRC, lanes=2)
        batch.poke("a", [42, 7])
        batch.step_domain("clock")
        assert batch.peek("fast_out") == [42, 7]
        assert batch.peek("slow_out") == [0, 0]  # clk2 has not ticked
        batch.step_domain("clk2")
        assert batch.peek("slow_out") == [42, 7]

    def test_unknown_domain_rejected(self):
        with pytest.raises(KeyError):
            BatchSimulator(self.SRC, lanes=2).step_domain("clk9")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_step_domain_lockstep_with_scalar(self, kernel, rng):
        lanes = 3
        batch = BatchSimulator(self.SRC, lanes=lanes, kernel=kernel)
        scalars = [Simulator(self.SRC, kernel=kernel) for _ in range(lanes)]
        for cycle in range(16):
            values = [rng.randrange(256) for _ in range(lanes)]
            batch.poke("a", values)
            for lane, scalar in enumerate(scalars):
                scalar.poke("a", values[lane])
            domain = ("clock", "clk2")[cycle % 2]
            batch.step_domain(domain)
            for scalar in scalars:
                scalar.step_domain(domain)
            for name in ("fast_out", "slow_out"):
                assert batch.peek(name) == [s.peek(name) for s in scalars]


class TestTwoPhaseCommit:
    """Register-to-register moves: every next-state row is read before
    any state row is written, on both planes, for the all-domain
    ``step()`` and the per-domain ``step_domain()`` commit tables."""

    LANES = 3
    SWAP, ROTATION = ("r1", "r2"), ("q0", "q1", "q2")

    @staticmethod
    def src(width):
        """A swap on ``clock`` and a three-register rotation on ``clk2``;
        every next-state slot *is* another register's state slot."""
        w = f"UInt<{width}>"
        return (
            "circuit Moves :\n"
            "  module Moves :\n"
            "    input clock : Clock\n"
            "    input clk2 : Clock\n"
            + "".join(f"    output o_{r} : {w}\n" for r in ("r1", "r2", "q0", "q1", "q2"))
            + f"    reg r1 : {w}, clock\n    reg r2 : {w}, clock\n"
            + "".join(f"    reg {r} : {w}, clk2\n" for r in ("q0", "q1", "q2"))
            + "    r1 <= r2\n    r2 <= r1\n"
            "    q0 <= q2\n    q1 <= q0\n    q2 <= q1\n"
            + "".join(f"    o_{r} <= {r}\n" for r in ("r1", "r2", "q0", "q1", "q2"))
        )

    def seeded(self, width, backend, rng):
        """A batch and its scalar references with distinct random
        register state in every lane (registers are not pokeable, so the
        state goes in through the checkpoint surfaces)."""
        source = self.src(width)
        batch = BatchSimulator(source, lanes=self.LANES, backend=backend)
        scalars = [Simulator(source) for _ in range(self.LANES)]
        rows, cycle = batch.export_state()
        state = {}
        for name in self.SWAP + self.ROTATION:
            state[name] = [rng.randrange(1, 1 << width) for _ in range(self.LANES)]
            rows[batch.bundle.signal_slots[name]] = state[name]
        batch.import_state(rows, cycle)
        for lane, scalar in enumerate(scalars):
            checkpoint = scalar.snapshot()
            for name, values in state.items():
                checkpoint.values[scalar.bundle.signal_slots[name]] = values[lane]
            scalar.restore(checkpoint)
        return batch, scalars, state

    def assert_holds(self, batch, scalars, swap, rotation):
        """The batch shows exactly ``swap`` / ``rotation``, and every lane
        agrees with its scalar reference."""
        names = self.SWAP + self.ROTATION
        got = [batch.peek(f"o_{name}") for name in names]
        assert got == swap + rotation
        for lane, scalar in enumerate(scalars):
            assert [scalar.peek(f"o_{name}") for name in names] == [
                row[lane] for row in got
            ]

    @pytest.mark.parametrize("width", (8, 65, 128))
    @pytest.mark.parametrize("backend", ("auto", "python"))
    def test_swap_and_rotation_step(self, backend, width, rng):
        batch, scalars, state = self.seeded(width, backend, rng)
        swap = [state[name] for name in self.SWAP]
        rotation = [state[name] for name in self.ROTATION]
        for _ in range(4):
            self.assert_holds(batch, scalars, swap, rotation)
            batch.step()
            for scalar in scalars:
                scalar.step()
            swap = swap[::-1]
            rotation = rotation[-1:] + rotation[:-1]

    @pytest.mark.parametrize("width", (8, 65))
    @pytest.mark.parametrize("backend", ("auto", "python"))
    def test_swap_and_rotation_step_domain(self, backend, width, rng):
        batch, scalars, state = self.seeded(width, backend, rng)
        swap = [state[name] for name in self.SWAP]
        rotation = [state[name] for name in self.ROTATION]
        for domain in ("clock", "clk2", "clk2", "clock", "clk2"):
            batch.step_domain(domain)
            for scalar in scalars:
                scalar.step_domain(domain)
            if domain == "clock":
                swap = swap[::-1]
            else:
                rotation = rotation[-1:] + rotation[:-1]
            self.assert_holds(batch, scalars, swap, rotation)


class TestSnapshotRestore:
    def test_scalar_snapshot_roundtrip(self, counter_src):
        simulator = Simulator(counter_src)
        simulator.poke("enable", 1)
        simulator.step(3)
        checkpoint = simulator.snapshot()
        simulator.step(4)
        assert simulator.peek("count") == 7
        simulator.restore(checkpoint)
        assert simulator.cycle == 3
        assert simulator.peek("count") == 3
        simulator.step(4)
        assert simulator.peek("count") == 7  # deterministic replay

    def test_scalar_snapshot_is_isolated(self, counter_src):
        simulator = Simulator(counter_src)
        simulator.poke("enable", 1)
        checkpoint = simulator.snapshot()
        simulator.step(5)
        assert checkpoint.cycle == 0
        simulator.restore(checkpoint)
        assert simulator.peek("count") == 0

    @pytest.mark.parametrize("backend", ("auto", "python"))
    def test_batch_snapshot_roundtrip(self, counter_src, backend):
        batch = BatchSimulator(counter_src, lanes=3, backend=backend)
        batch.poke("enable", [1, 1, 0])
        batch.step(2)
        checkpoint = batch.snapshot()
        batch.step(3)
        assert batch.peek("count") == [5, 5, 0]
        batch.restore(checkpoint)
        assert batch.cycle == 2
        assert batch.peek("count") == [2, 2, 0]
        batch.step(3)
        assert batch.peek("count") == [5, 5, 0]

    def test_batch_snapshot_is_isolated(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2)
        batch.poke("enable", 1)
        checkpoint = batch.snapshot()
        batch.step(4)  # must not corrupt the checkpoint's plane
        batch.restore(checkpoint)
        assert batch.peek("count") == [0, 0]

    def test_restore_rejects_mismatched_snapshot(self, counter_src, mixed_src):
        batch = BatchSimulator(counter_src, lanes=2)
        with pytest.raises(ValueError):
            batch.restore(BatchSimulator(mixed_src, lanes=2).snapshot())
        with pytest.raises(ValueError):
            batch.restore(BatchSimulator(counter_src, lanes=3).snapshot())

    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    def test_restore_rejects_other_backend(self, counter_src):
        batch = BatchSimulator(counter_src, lanes=2, backend="python")
        checkpoint = batch.snapshot()
        with pytest.raises(ValueError):
            BatchSimulator(counter_src, lanes=2, backend="u64").restore(
                checkpoint
            )

    def test_scalar_restore_rejects_other_design(self, counter_src, mixed_src):
        with pytest.raises(ValueError):
            Simulator(counter_src).restore(Simulator(mixed_src).snapshot())


class TestWideDesigns:
    WIDE_SRC = (
        "circuit Wide :\n"
        "  module Wide :\n"
        "    input clock : Clock\n"
        "    input lo : UInt<64>\n"
        "    input hi : UInt<16>\n"
        "    output out : UInt<80>\n"
        "    output folded : UInt<64>\n"
        "    reg acc : UInt<80>, clock\n"
        "    node wide = cat(hi, lo)\n"
        "    acc <= xor(acc, wide)\n"
        "    out <= acc\n"
        "    folded <= bits(acc, 63, 0)\n"
    )

    @pytest.mark.skipif(not HAS_NUMPY, reason="NumPy not installed")
    @pytest.mark.parametrize("backend", ("auto", "u64xN", "python"))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wide_backend_lockstep(self, kernel, backend, rng):
        lanes = 3
        batch = BatchSimulator(
            self.WIDE_SRC, lanes=lanes, kernel=kernel, backend=backend
        )
        assert batch.backend == ("u64xN" if backend == "auto" else backend)
        scalars = [Simulator(self.WIDE_SRC, kernel=kernel) for _ in range(lanes)]
        for cycle in range(16):
            lo = [rng.randrange(1 << 64) for _ in range(lanes)]
            hi = [rng.randrange(1 << 16) for _ in range(lanes)]
            batch.poke("lo", lo)
            batch.poke("hi", hi)
            for lane, scalar in enumerate(scalars):
                scalar.poke("lo", lo[lane])
                scalar.poke("hi", hi[lane])
            for name in ("out", "folded"):
                assert batch.peek(name) == [s.peek(name) for s in scalars]
            batch.step()
            for scalar in scalars:
                scalar.step()
