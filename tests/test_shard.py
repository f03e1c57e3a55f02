"""Tests for repro.shard: lockstep equivalence of the sharded batched
simulator with the scalar simulator and the flat batch engine, across
executors ({serial, thread, process}) and partition counts."""

import pytest

from repro.batch import BatchSimulator
from repro.designs.registry import compile_named_design, compiled_graph
from repro.shard import EXECUTORS, ChannelExecutor, ShardedBatchSimulator
from repro.sim import Simulator
from repro.workloads.stimulus import batched_workload_for

from conftest import graph_with_unplaced_signal

LANES = 2
CYCLES = 6

#: Multi-clock design: two domains, register-to-register across them.
DUAL_SRC = (
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


def observable_outputs(bundle):
    outputs = sorted(set(bundle.output_slots) & set(bundle.signal_slots))
    assert outputs, f"no observable outputs on {bundle.design_name}"
    return outputs


def assert_shard_lockstep_vs_scalar(
    design, executor, partitions, lanes=LANES, cycles=CYCLES, kernel="PSU",
    partitioner="greedy",
):
    """Sharded B-lane run must be bit-exact with B scalar runs, per cycle."""
    bundle = compile_named_design(design)
    graph = compiled_graph(design)
    workload = batched_workload_for(design, lanes)
    outputs = observable_outputs(bundle)
    scalars = [Simulator(bundle, kernel=kernel) for _ in range(lanes)]
    with ShardedBatchSimulator(
        graph, lanes=lanes, num_partitions=partitions, kernel=kernel,
        executor=executor, partitioner=partitioner,
    ) as shard:
        for cycle in range(cycles):
            workload.apply(shard, cycle)
            for lane, scalar in enumerate(scalars):
                workload.lane(lane).apply(scalar, cycle)
            for name in outputs:
                got = shard.peek(name)
                want = [scalar.peek(name) for scalar in scalars]
                assert got == want, (
                    f"{design}/{executor}/{partitioner}/P={partitions}: "
                    f"divergence on {name!r} at cycle {cycle}: "
                    f"{got} != {want}"
                )
            shard.step()
            for scalar in scalars:
                scalar.step()
        return shard.differential_savings


class TestLockstepVsScalar:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("design", ("rocket-1", "gemmini-8", "sha3"))
    def test_registry_designs(self, design, executor):
        assert_shard_lockstep_vs_scalar(design, executor, partitions=2)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("partitions", (1, 2, 4))
    def test_partition_counts(self, executor, partitions):
        assert_shard_lockstep_vs_scalar(
            "gemmini-8", executor, partitions=partitions
        )

    def test_python_backend_lockstep(self):
        bundle = compile_named_design("gemmini-8")
        graph = compiled_graph("gemmini-8")
        workload = batched_workload_for("gemmini-8", LANES)
        outputs = observable_outputs(bundle)
        scalars = [Simulator(bundle) for _ in range(LANES)]
        with ShardedBatchSimulator(
            graph, lanes=LANES, num_partitions=2, backend="python",
        ) as shard:
            assert all(
                style.startswith("python/")
                for style in shard.describe_partitions()
            )
            for cycle in range(CYCLES):
                workload.apply(shard, cycle)
                for lane, scalar in enumerate(scalars):
                    workload.lane(lane).apply(scalar, cycle)
                for name in outputs:
                    assert shard.peek(name) == [s.peek(name) for s in scalars]
                shard.step()
                for scalar in scalars:
                    scalar.step()


class TestRefinedPartitioner:
    """The KL/FM-refined cut stays bit-exact across every executor."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_lockstep_shared_fanin_design(self, executor):
        # rocket-1 refined at P=2 is the asymmetric low-replication cut.
        assert_shard_lockstep_vs_scalar(
            "rocket-1", executor, partitions=2, partitioner="refined"
        )

    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_lockstep_balanced_design(self, executor):
        # gemmini-8 refined stays balanced (near-disjoint cones).
        assert_shard_lockstep_vs_scalar(
            "gemmini-8", executor, partitions=4, partitioner="refined"
        )

    def test_refined_replicates_less_than_greedy(self):
        graph = compiled_graph("rocket-1")
        with ShardedBatchSimulator(
            graph, lanes=2, num_partitions=2
        ) as greedy, ShardedBatchSimulator(
            graph, lanes=2, num_partitions=2, partitioner="refined"
        ) as refined:
            assert (
                refined.replication_overhead
                < 0.2 * greedy.replication_overhead
            )
            assert refined.num_partitions == 2

    def test_max_replication_cap_threads_through(self):
        graph = compiled_graph("rocket-1")
        with ShardedBatchSimulator(
            graph, lanes=2, num_partitions=2, partitioner="refined",
            max_replication=0.25,
        ) as sim:
            assert sim.replication_overhead <= 0.25 + 1e-9
            sim.step(2)  # still simulates

    def test_unknown_partitioner_rejected(self, counter_src):
        with pytest.raises(ValueError, match="strategy"):
            ShardedBatchSimulator(counter_src, lanes=2, partitioner="metis")


class TestDegeneratePartitionCounts:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_empty_partitions_pruned_not_spawned(self, counter_src, executor):
        # counter has two cones (one register, one output): asking for 6
        # partitions must not spawn 4 idle workers.
        with pytest.warns(RuntimeWarning, match="own a register or output"):
            sim = ShardedBatchSimulator(
                counter_src, lanes=3, num_partitions=6, executor=executor
            )
        with sim:
            assert sim.num_partitions == 2
            assert len(sim.describe_partitions()) == 2
            sim.poke("enable", 1)
            sim.step(3)
            assert sim.peek("count") == [3, 3, 3]

    def test_pruned_snapshot_roundtrip(self, counter_src):
        with pytest.warns(RuntimeWarning):
            sim = ShardedBatchSimulator(counter_src, lanes=2,
                                        num_partitions=5)
        with sim:
            sim.poke("enable", 1)
            sim.step(2)
            checkpoint = sim.snapshot()
            assert len(checkpoint.partition_states) == sim.num_partitions
            sim.step(3)
            sim.restore(checkpoint)
            assert sim.peek("count") == [2, 2]


class TestLockstepVsBatch:
    @pytest.mark.parametrize("executor", ("serial", "process"))
    def test_matches_flat_batch_engine(self, executor):
        design = "rocket-1"
        bundle = compile_named_design(design)
        graph = compiled_graph(design)
        workload = batched_workload_for(design, LANES)
        outputs = observable_outputs(bundle)
        flat = BatchSimulator(bundle, lanes=LANES)
        with ShardedBatchSimulator(
            graph, lanes=LANES, num_partitions=2, executor=executor,
        ) as shard:
            for cycle in range(CYCLES):
                workload.apply(shard, cycle)
                workload.apply(flat, cycle)
                for name in outputs:
                    assert shard.peek(name) == flat.peek(name), (
                        f"{name!r} diverged from flat batch at cycle {cycle}"
                    )
                shard.step()
                flat.step()


class TestMultiClock:
    def test_domains_discovered(self):
        with ShardedBatchSimulator(DUAL_SRC, lanes=2, num_partitions=2) as sim:
            assert sim.clock_domains == ["clk2", "clock"]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_step_domain_lockstep_with_scalar(self, executor, rng):
        lanes = 3
        scalars = [Simulator(DUAL_SRC) for _ in range(lanes)]
        with ShardedBatchSimulator(
            DUAL_SRC, lanes=lanes, num_partitions=2, executor=executor,
        ) as shard:
            for cycle in range(12):
                values = [rng.randrange(256) for _ in range(lanes)]
                shard.poke("a", values)
                for lane, scalar in enumerate(scalars):
                    scalar.poke("a", values[lane])
                domain = ("clock", "clk2")[cycle % 2]
                shard.step_domain(domain)
                for scalar in scalars:
                    scalar.step_domain(domain)
                for name in ("fast_out", "slow_out"):
                    assert shard.peek(name) == [s.peek(name) for s in scalars]

    def test_unknown_domain_rejected(self):
        with ShardedBatchSimulator(DUAL_SRC, lanes=2, num_partitions=2) as sim:
            with pytest.raises(KeyError):
                sim.step_domain("clk9")


class TestShardApi:
    def test_poke_broadcast_and_vector(self, counter_src):
        with ShardedBatchSimulator(
            counter_src, lanes=4, num_partitions=2
        ) as sim:
            sim.poke("enable", 1)                # broadcast
            sim.step(2)
            assert sim.peek("count") == [2, 2, 2, 2]
            sim.poke("enable", [1, 0, 1, 0])     # per lane
            sim.step()
            assert sim.peek("count") == [3, 2, 3, 2]
            assert sim.peek_lane("count", 1) == 2

    def test_poke_unknown_input(self, counter_src):
        with ShardedBatchSimulator(counter_src, lanes=2) as sim:
            with pytest.raises(KeyError):
                sim.poke("bogus", 1)

    def test_peek_unknown_signal(self, counter_src):
        with ShardedBatchSimulator(counter_src, lanes=2) as sim:
            with pytest.raises(KeyError, match="optimised away"):
                sim.peek("bogus")

    def test_peek_unplaced_signal_gets_clear_error(self):
        # A named op feeding no register or output lands in no partition:
        # the error must say so (and name related partitions), not look
        # like a typo.
        graph = graph_with_unplaced_signal()
        with ShardedBatchSimulator(graph, lanes=2, num_partitions=2) as sim:
            with pytest.raises(KeyError) as excinfo:
                sim.peek("r.dbg")
            message = str(excinfo.value)
            assert "r.dbg" in message
            assert "preserve_signals" in message
            assert "not placed in any partition" in message

    def test_lanes_validated(self, counter_src):
        with pytest.raises(ValueError):
            ShardedBatchSimulator(counter_src, lanes=0)

    def test_unknown_executor_rejected(self, counter_src):
        with pytest.raises(KeyError):
            ShardedBatchSimulator(counter_src, lanes=2, executor="gpu")

    def test_reset_preserves_per_lane_pokes(self, counter_src):
        with ShardedBatchSimulator(
            counter_src, lanes=3, num_partitions=2
        ) as sim:
            sim.poke("enable", [1, 0, 1])
            sim.step(5)
            sim.reset()
            assert sim.cycle == 0
            assert sim.peek("count") == [0, 0, 0]
            sim.step()
            assert sim.peek("count") == [1, 0, 1]  # pokes survived the reset

    def test_sync_stats(self):
        with ShardedBatchSimulator(
            compiled_graph("gemmini-8"), lanes=2, num_partitions=2
        ) as sim:
            bound = len(compiled_graph("gemmini-8").registers) * (
                sim.num_partitions - 1
            )
            assert 0 < sim.sync_traffic_per_cycle() <= bound
            sim.step(4)
            assert 0.0 <= sim.differential_savings <= 1.0
            assert sim.sync_sent > 0

    def test_replication_metadata(self):
        with ShardedBatchSimulator(
            compiled_graph("rocket-1"), lanes=2, num_partitions=2
        ) as sim:
            assert sim.num_partitions == 2
            assert sim.replication_overhead >= 0
            assert len(sim.describe_partitions()) == 2

    def test_close_is_idempotent(self, counter_src):
        sim = ShardedBatchSimulator(
            counter_src, lanes=2, num_partitions=2, executor="process"
        )
        sim.poke("enable", 1)
        sim.step()
        assert sim.peek("count") == [1, 1]
        sim.close()
        sim.close()

    def test_repr(self, counter_src):
        with ShardedBatchSimulator(counter_src, lanes=2) as sim:
            text = repr(sim)
            assert "lanes=2" in text and "serial" in text


class TestSnapshotRestore:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_roundtrip(self, counter_src, executor):
        with ShardedBatchSimulator(
            counter_src, lanes=3, num_partitions=2, executor=executor,
        ) as sim:
            sim.poke("enable", [1, 1, 0])
            sim.step(2)
            checkpoint = sim.snapshot()
            sim.step(3)
            assert sim.peek("count") == [5, 5, 0]
            sim.restore(checkpoint)
            assert sim.cycle == 2
            assert sim.peek("count") == [2, 2, 0]
            sim.step(3)
            assert sim.peek("count") == [5, 5, 0]  # deterministic replay

    def test_snapshot_is_isolated(self, counter_src):
        with ShardedBatchSimulator(
            counter_src, lanes=2, num_partitions=2
        ) as sim:
            sim.poke("enable", 1)
            checkpoint = sim.snapshot()
            sim.step(4)  # must not corrupt the checkpoint's planes
            sim.restore(checkpoint)
            assert sim.peek("count") == [0, 0]

    def test_restore_rejects_different_cut(self):
        # Same design, executor, lanes and partition count -- but the
        # greedy and refined cuts assign registers differently, so their
        # partition states must not restore onto each other.
        graph = compiled_graph("rocket-1")
        with ShardedBatchSimulator(
            graph, lanes=2, num_partitions=2, partitioner="refined"
        ) as refined_sim:
            checkpoint = refined_sim.snapshot()
        with ShardedBatchSimulator(graph, lanes=2, num_partitions=2) as sim:
            with pytest.raises(ValueError, match="different partitioning"):
                sim.restore(checkpoint)

    def test_restore_rejects_other_executor(self, counter_src):
        with ShardedBatchSimulator(
            counter_src, lanes=2, num_partitions=2, executor="serial"
        ) as serial_sim:
            checkpoint = serial_sim.snapshot()
        with ShardedBatchSimulator(
            counter_src, lanes=2, num_partitions=2, executor="thread"
        ) as thread_sim:
            with pytest.raises(ValueError):
                thread_sim.restore(checkpoint)

    def test_restore_rejects_mismatched_shape(self, counter_src, gcd_src):
        # gcd has enough cones for three real partitions; counter would
        # prune 3 down to its 2 cones and match the target by accident.
        with ShardedBatchSimulator(
            gcd_src, lanes=2, num_partitions=3
        ) as donor:
            assert donor.num_partitions == 3
            three_parts = donor.snapshot()
        with ShardedBatchSimulator(
            counter_src, lanes=4, num_partitions=2
        ) as donor:
            four_lanes = donor.snapshot()
        with ShardedBatchSimulator(
            counter_src, lanes=2, num_partitions=2
        ) as sim:
            with pytest.raises(ValueError):
                sim.restore(three_parts)
            with pytest.raises(ValueError):
                sim.restore(four_lanes)


class TestExecutorFactory:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            ChannelExecutor("quantum", [], 1, "PSU", "auto", [])

    def test_worker_error_surfaces(self):
        # An explicit u64 request on a >64-bit design must raise from the
        # worker's construction handshake, not hang.
        graph = compiled_graph("sha3")
        with pytest.raises((ValueError, RuntimeError)):
            ShardedBatchSimulator(
                graph, lanes=2, num_partitions=2, backend="u64",
                executor="process",
            )
