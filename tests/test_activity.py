"""Sparsity-aware execution: the activity engines stay bit-exact.

The fiber-driven activity walk (scalar ``kernel="activity"``, batched
:class:`~repro.batch.BatchActivityKernel` with lane compaction, and the
sharded settle-skipping composition) re-evaluates only what toggled --
an optimisation that is only admissible if it is *invisible*.  This
suite pins that down three ways:

* lockstep runs of the activity-enabled batch and shard engines against
  their plain counterparts (and the scalar reference) on every registry
  design, via the differential harness;
* low-activity stimulus (:func:`repro.workloads.sparsify`) asserting the
  engines actually skip work -- nonzero layer/op/lane skip rates, so the
  sparse path is exercised, not just bypassed;
* bit-identical VCD documents across ``snapshot()``/``restore()`` and
  against a plain-kernel run of the same stimulus, so the skip logic
  never leaks into observable waveforms.

Budget: the small designs take the activity arms at full width; the
heavy designs (rocket-4/8, small-4/8, gemmini-16/32) run a trimmed
single-seed pass like ``tests/test_differential.py`` does.
"""

import pytest

from repro.batch import BatchSimulator, HAS_NUMPY
from repro.designs.registry import compiled_graph, standard_designs
from repro.kernels.activity import ActivityStats, merge_stats
from repro.shard import ShardedBatchSimulator
from repro.sim import Simulator, VcdWriter
from repro.verify.differential import (
    _spec,
    observable_outputs,
    run_differential_suite,
)
from repro.workloads import (
    batched_workload_for,
    sparse_batched_workload_for,
    sparsify,
    workload_for,
)

SMALL_DESIGNS = ("rocket-1", "small-1", "gemmini-8", "sha3")
HEAVY_DESIGNS = tuple(
    design for design in standard_designs() if design not in SMALL_DESIGNS
)

#: Activity engines vs their plain counterparts, scalar reference first.
ACTIVITY_MATRIX = [
    _spec("scalar", "scalar", kernel="PSU"),
    _spec("batch-auto", "batch", backend="auto", kernel="PSU"),
    _spec("batch-activity", "batch", backend="auto", kernel="activity:PSU"),
    _spec("shard-serial-greedy", "shard", executor="serial",
          partitioner="greedy", kernel="PSU"),
    _spec("shard-activity", "shard", executor="serial",
          partitioner="greedy", kernel="activity:PSU"),
]

#: Heavy designs: one plain batch reference against both sparse engines.
TRIMMED_ACTIVITY_MATRIX = [
    _spec("batch-auto", "batch", backend="auto", kernel="PSU"),
    _spec("batch-activity", "batch", backend="auto", kernel="activity:PSU"),
    _spec("shard-activity", "shard", executor="serial",
          partitioner="greedy", kernel="activity:PSU"),
]


def _check(results):
    for result in results:
        assert result.ok, result.summary()


class TestActivityLockstep:
    """Differential runs: sparse engines vs dense on every design."""

    @pytest.mark.parametrize("design", SMALL_DESIGNS)
    def test_small_designs_full_matrix(self, design):
        _check(run_differential_suite(
            design, seeds=[0, 1], lanes=2, cycles=12,
            engines=ACTIVITY_MATRIX,
        ))

    @pytest.mark.parametrize("design", HEAVY_DESIGNS)
    def test_heavy_designs_trimmed(self, design):
        _check(run_differential_suite(
            design, seeds=[0], lanes=2, cycles=6,
            engines=TRIMMED_ACTIVITY_MATRIX,
        ))

    @pytest.mark.parametrize("design", SMALL_DESIGNS)
    def test_sparse_stimulus_lockstep(self, design):
        """Held (low-activity) stimulus through the same matrix: the
        regime the sparse engines are built for is also cross-checked."""
        fleet = {}
        try:
            for spec in ACTIVITY_MATRIX:
                from repro.verify.differential import build_engine
                fleet[spec.name] = build_engine(spec, design, 2)
            workload = sparse_batched_workload_for(design, 2, period=6)
            from repro.sim import first_divergence, run_lockstep
            traces = run_lockstep(
                fleet, workload, observable_outputs(design), 18
            )
            diff = first_divergence(traces, reference="scalar")
            assert diff is None, diff
        finally:
            for engine in fleet.values():
                close = getattr(engine, "close", None)
                if close is not None:
                    close()


class TestSkipRates:
    """Low-activity stimulus must actually skip work."""

    def test_batch_skips_under_held_stimulus(self):
        sim = BatchSimulator(
            compiled_graph("rocket-1"), lanes=4, kernel="activity"
        )
        workload = sparse_batched_workload_for("rocket-1", 4, period=8)
        for cycle in range(32):
            workload.apply(sim, cycle)
            sim.step()
        stats = sim.activity_stats
        assert stats is not None and stats.cycles == 32
        assert stats.op_skip_rate > 0.0
        assert stats.layer_skip_rate > 0.0
        assert stats.ops_evaluated > 0  # it did run the design, too

    def test_lane_compaction_skips_quiet_lanes(self):
        """Lanes whose inputs hold still are compacted out of the pass."""
        sim = BatchSimulator(
            compiled_graph("rocket-1"), lanes=4, kernel="activity"
        )
        dense = batched_workload_for("rocket-1", 4)
        held = sparsify(dense, period=1 << 20)  # lanes 1-3 frozen streams
        for cycle in range(24):
            # Lane 0 gets fresh stimulus every cycle, others hold.
            for name in dense.lane(0).drivers:
                values = [dense.lane(0).drivers[name](cycle)]
                values += [held.lane(i).drivers[name](cycle)
                           for i in range(1, 4)]
                sim.poke(name, values)
            sim.step()
        stats = sim.activity_stats
        assert stats.lanes_skipped > 0
        assert stats.lane_skip_rate > 0.0

    def test_scalar_kernel_skips(self):
        sim = Simulator(compiled_graph("rocket-1"), kernel="activity")
        workload = sparsify(workload_for("rocket-1"), period=8)
        for cycle in range(32):
            workload.apply(sim, cycle)
            sim.step()
        stats = sim.activity_stats
        assert stats is not None and stats.op_skip_rate > 0.0

    def test_shard_skips_and_merges(self):
        sim = ShardedBatchSimulator(
            compiled_graph("rocket-1"), lanes=2, num_partitions=2,
            kernel="activity",
        )
        try:
            workload = sparse_batched_workload_for("rocket-1", 2, period=8)
            for cycle in range(32):
                workload.apply(sim, cycle)
                sim.step()
            stats = sim.activity_stats
            assert isinstance(stats, ActivityStats)
            assert stats.cycles == 32  # merge() takes max, not sum
            assert stats.op_skip_rate > 0.0
        finally:
            sim.close()

    def test_plain_kernels_report_none(self):
        sim = BatchSimulator(compiled_graph("rocket-1"), lanes=2)
        assert sim.activity_stats is None
        shard = ShardedBatchSimulator(
            compiled_graph("rocket-1"), lanes=2, num_partitions=2
        )
        try:
            assert shard.activity_stats is None
        finally:
            shard.close()


class TestActivityVcd:
    """Waveform identity: restore replays and plain runs match bit-for-bit."""

    WARMUP = 6
    SEGMENT = 10

    def _segment_document(self, sim, workload, signals, start):
        writer = VcdWriter(sim, signals)
        for cycle in range(start, start + self.SEGMENT):
            workload.apply(sim, cycle)
            sim.step()
            writer.sample()
        return writer.document()

    def test_vcd_identical_across_snapshot_restore(self):
        design = "rocket-1"
        signals = {
            name: width
            for name, width in BatchSimulator(
                compiled_graph(design), lanes=2
            ).signal_widths.items()
            if name in observable_outputs(design)
        }
        workload = sparse_batched_workload_for(design, 2, period=4)

        sim = BatchSimulator(compiled_graph(design), lanes=2,
                             kernel="activity")
        for cycle in range(self.WARMUP):
            workload.apply(sim, cycle)
            sim.step()
        snap = sim.snapshot()
        first = self._segment_document(sim, workload, signals, self.WARMUP)

        # restore() invalidates the fiber snapshot: the replay's first
        # pass is cold, yet the waveform must not change by a bit.
        sim.restore(snap)
        replay = self._segment_document(sim, workload, signals, self.WARMUP)
        assert replay == first

        # ... and a plain-kernel run of the same stream matches too.
        plain = BatchSimulator(compiled_graph(design), lanes=2)
        for cycle in range(self.WARMUP):
            workload.apply(plain, cycle)
            plain.step()
        dense = self._segment_document(plain, workload, signals, self.WARMUP)
        assert dense == first


class TestActivityStatsApi:
    def test_merge_and_dict_round_trip(self):
        a = ActivityStats(cycles=4, layers_evaluated=8, layers_skipped=2,
                          ops_evaluated=30, ops_skipped=10,
                          lanes_active=6, lanes_skipped=2)
        b = ActivityStats(cycles=6, layers_evaluated=1, layers_skipped=9,
                          ops_evaluated=5, ops_skipped=35,
                          lanes_active=1, lanes_skipped=7)
        a.merge(b)  # in-place accumulation
        assert a.cycles == 6  # max, not sum: shard partitions share cycles
        assert a.ops_evaluated == 35 and a.ops_skipped == 45
        assert a.op_skip_rate == pytest.approx(45 / 80)
        assert ActivityStats.from_dict(a.as_dict()) == a

    def test_merge_stats_folds_optionals(self):
        a = ActivityStats(cycles=2, ops_evaluated=4)
        assert merge_stats([None, a, None]) == a
        assert merge_stats([]) == ActivityStats()

    def test_sparsify_validation(self):
        workload = workload_for("rocket-1")
        with pytest.raises(ValueError):
            sparsify(workload, 0)
        held = sparsify(workload, 4)
        assert held.drivers["reset"](1) == workload.drivers["reset"](1)
        for cycle in range(12):
            base = cycle - cycle % 4
            assert held.drivers["instr"](cycle) == \
                workload.drivers["instr"](base)


if HAS_NUMPY:
    class TestActivityBackends:
        """The activity kernel composes with every value-plane backend."""

        @pytest.mark.parametrize("backend", ["u64", "python"])
        def test_backend_lockstep(self, backend):
            plain = BatchSimulator(compiled_graph("rocket-1"), lanes=2,
                                   backend=backend)
            sparse = BatchSimulator(compiled_graph("rocket-1"), lanes=2,
                                    backend=backend, kernel="activity")
            workload = batched_workload_for("rocket-1", 2)
            for cycle in range(10):
                workload.apply(plain, cycle)
                workload.apply(sparse, cycle)
                plain.step()
                sparse.step()
                for name in observable_outputs("rocket-1"):
                    assert sparse.peek(name) == plain.peek(name), (
                        f"{name} diverged at cycle {cycle}"
                    )

        def test_u64xn_backend_lockstep(self):
            # sha3 slots exceed 64 bits: the limb plane's activity path.
            plain = BatchSimulator(compiled_graph("sha3"), lanes=2,
                                   backend="u64xN")
            sparse = BatchSimulator(compiled_graph("sha3"), lanes=2,
                                    backend="u64xN", kernel="activity")
            workload = batched_workload_for("sha3", 2)
            for cycle in range(10):
                workload.apply(plain, cycle)
                workload.apply(sparse, cycle)
                plain.step()
                sparse.step()
                for name in observable_outputs("sha3"):
                    assert sparse.peek(name) == plain.peek(name), (
                        f"{name} diverged at cycle {cycle}"
                    )
