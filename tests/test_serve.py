"""Tests for repro.serve: artifact cache, lane fleet, and the server.

Covers the service layer's contracts end to end:

* deterministic design fingerprints, stable across *processes*;
* cache invalidation when the design or any shaping parameter changes;
* corruption tolerance (a damaged entry is a recompute, never a crash);
* warm-vs-cold bit-identity of cached simulator construction;
* >= 8 concurrent fleet sessions bit-identical to independent scalar
  runs, plus checkpoint/restore and migration;
* the asyncio server over its JSON wire protocol;
* the lane-aware DMI frontend.
"""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import threading

import pytest

from repro.designs.registry import get_design
from repro.serve.artifacts import (
    ArtifactCache,
    cache_through,
    configure_cache,
    design_fingerprint,
    disable_cache,
    get_cache,
    source_digest,
)
from repro.sim import Simulator

ROCKET = "rocket-1"


def _cache_writer_child(root: str, seed: int, cap: int) -> None:
    """One concurrent-writer process for the shared-directory test
    (module level so it pickles under the spawn start method)."""
    writer_rng = random.Random(seed)
    store = ArtifactCache(root, max_bytes=cap)
    for index in range(50):
        payload = bytes(writer_rng.randrange(400, 1200))
        store.put("program", f"{seed}-{index:03d}", payload)


@pytest.fixture()
def cache(tmp_path):
    """An active cache for the duration of one test, then deactivated."""
    active = configure_cache(tmp_path / "cache")
    try:
        yield active
    finally:
        disable_cache()


@pytest.fixture(autouse=True)
def _no_cache_leak():
    """No test leaves a configured cache behind for its neighbours."""
    yield
    disable_cache()


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_deterministic_within_process(self, mixed_graph):
        assert design_fingerprint(mixed_graph) == design_fingerprint(mixed_graph)

    def test_parameters_change_digest(self, mixed_graph):
        base = design_fingerprint(mixed_graph, stage="partition", p=2)
        assert base != design_fingerprint(mixed_graph, stage="partition", p=4)
        assert base != design_fingerprint(mixed_graph, stage="rum", p=2)

    def test_design_change_changes_digest(self, mixed_src, mixed_graph):
        from repro.sim.simulator import compile_graph

        other = compile_graph(mixed_src.replace("UInt<8>(170)", "UInt<8>(171)"))
        assert design_fingerprint(other) != design_fingerprint(mixed_graph)

    def test_source_digest_params(self, mixed_src):
        assert source_digest(mixed_src) == source_digest(mixed_src)
        assert source_digest(mixed_src) != source_digest(mixed_src + " ")
        assert source_digest(mixed_src, k=1) != source_digest(mixed_src, k=2)

    def test_stable_across_processes(self, mixed_src, mixed_graph, tmp_path):
        """The cache key a second process computes must equal ours --
        the whole point of a persistent cache."""
        script = tmp_path / "fp.py"
        script.write_text(
            "import sys\n"
            "from repro.sim.simulator import compile_graph\n"
            "from repro.serve.artifacts import design_fingerprint\n"
            "src = open(sys.argv[1]).read()\n"
            "print(design_fingerprint(compile_graph(src), stage='t', p=3))\n"
        )
        src_file = tmp_path / "design.fir"
        src_file.write_text(mixed_src)
        env = dict(os.environ)
        repro_src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__import__("repro").__file__))))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [os.path.join(repro_src, "src"),
                        env.get("PYTHONPATH", "")] if p
        )
        env.pop("REPRO_CACHE_DIR", None)
        out = subprocess.run(
            [sys.executable, str(script), str(src_file)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == design_fingerprint(
            mixed_graph, stage="t", p=3
        )


# ----------------------------------------------------------------------
# Cache mechanics
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactCache(tmp_path)
        assert store.get("graph", "abc") is None
        store.put("graph", "abc", {"x": 1})
        assert store.get("graph", "abc") == {"x": 1}
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.puts == 1

    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path):
        store = ArtifactCache(tmp_path)
        store.put("graph", "abc", [1, 2, 3])
        path = store.path_of("graph", "abc")
        path.write_bytes(b"not a pickle at all")
        assert store.get("graph", "abc") is None
        assert store.stats.corrupt_drops == 1
        assert not path.exists()

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ArtifactCache(tmp_path)
        path = store.path_of("graph", "abc")
        path.write_bytes(pickle.dumps(
            {"schema": -1, "kind": "graph", "digest": "abc", "payload": 1}
        ))
        assert store.get("graph", "abc") is None
        assert store.stats.corrupt_drops == 1

    def test_digest_mismatch_inside_envelope_is_a_miss(self, tmp_path):
        store = ArtifactCache(tmp_path)
        store.put("graph", "abc", 42)
        os.rename(store.path_of("graph", "abc"), store.path_of("graph", "def"))
        assert store.get("graph", "def") is None

    def test_unpicklable_payload_degrades_to_no_store(self, tmp_path):
        store = ArtifactCache(tmp_path)
        assert store.put("graph", "abc", lambda: None) is None
        assert store.get("graph", "abc") is None

    def test_lru_gc_respects_byte_cap(self, tmp_path):
        store = ArtifactCache(tmp_path, max_bytes=10_000_000)
        for index in range(6):
            store.put("graph", f"d{index}", bytes(1000))
        store.max_bytes = 3 * (store.entries()[0].size_bytes)
        evicted = store.gc()
        assert evicted >= 2
        remaining = {entry.digest for entry in store.entries()}
        # Oldest writes go first.
        assert "d0" not in remaining and "d5" in remaining

    def test_cache_through_inactive_computes(self):
        disable_cache()
        calls = []
        assert cache_through("graph", "x", lambda: calls.append(1) or 7) == 7
        assert cache_through("graph", "x", lambda: calls.append(1) or 7) == 7
        assert len(calls) == 2  # no cache: computed every time

    def test_cache_through_active_computes_once(self, cache):
        calls = []
        assert cache_through("graph", "x", lambda: calls.append(1) or 7) == 7
        assert cache_through("graph", "x", lambda: calls.append(1) or 7) == 7
        assert len(calls) == 1

    def test_get_cache_env_activation(self, tmp_path, monkeypatch):
        import repro.serve.artifacts as artifacts

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        monkeypatch.setattr(artifacts, "_active", None)
        monkeypatch.setattr(artifacts, "_resolved_env", False)
        active = get_cache()
        assert active is not None
        assert active.root == tmp_path / "envcache"
        disable_cache()

    def test_concurrent_writers_share_one_directory(self, tmp_path):
        """Several processes hammering one cache root (the fleet/CI
        sharing scenario): the advisory file lock serialises store +
        eviction, so no entry is ever corrupt and the byte cap holds."""
        import multiprocessing

        cap = 60_000
        procs = [
            multiprocessing.Process(
                target=_cache_writer_child, args=(str(tmp_path), seed, cap)
            )
            for seed in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0] * 4
        store = ArtifactCache(tmp_path, max_bytes=cap)
        entries = store.entries()
        assert entries, "every writer evicted everything?"
        assert sum(entry.size_bytes for entry in entries) <= cap
        for entry in entries:
            assert store.get(entry.kind, entry.digest) is not None
        assert store.stats.corrupt_drops == 0

    def test_gc_and_clear_reenter_safely_under_put(self, tmp_path):
        """put holds the lock while it evicts; the public gc()/clear()
        take it themselves -- none of these may deadlock in-process."""
        store = ArtifactCache(tmp_path, max_bytes=2_000)
        for index in range(8):
            store.put("graph", f"d{index}", bytes(600))  # forces GC inside put
        assert store.total_bytes <= 2_000
        store.gc()
        assert store.clear() >= 0
        assert store.entries() == []


# ----------------------------------------------------------------------
# Warm-vs-cold construction equivalence
# ----------------------------------------------------------------------
class TestWarmColdEquivalence:
    def _run(self, sim, scalar, inputs, cycles, seed):
        rng = random.Random(seed)
        for _ in range(cycles):
            for name in inputs:
                value = rng.randrange(1 << 16)
                sim.poke(name, value)
                scalar.poke(name, value)
            sim.step()
            scalar.step()

    def test_sharded_warm_matches_cold_and_scalar(self, cache):
        from repro.designs.registry import compiled_graph
        from repro.shard import ShardedBatchSimulator

        source = get_design(ROCKET)
        graph = compiled_graph(ROCKET)
        inputs = sorted(graph.inputs)
        watch = sorted(graph.outputs)

        cold = ShardedBatchSimulator(
            source, lanes=4, num_partitions=2, partitioner="refined"
        )
        assert cache.stats.puts > 0 and cache.stats.hits == 0
        warm = ShardedBatchSimulator(
            source, lanes=4, num_partitions=2, partitioner="refined"
        )
        assert cache.stats.hits > 0

        scalar = Simulator(source)
        rng = random.Random(3)
        for _ in range(10):
            for name in inputs:
                value = rng.randrange(1 << 16)
                cold.poke(name, value)
                warm.poke(name, value)
                scalar.poke(name, value)
            cold.step()
            warm.step()
            scalar.step()
        for name in watch:
            assert cold.peek(name) == warm.peek(name) == [scalar.peek(name)] * 4

    def test_batch_walk_warm_matches_cold(self, mixed_src, cache, monkeypatch):
        from repro.batch import BatchSimulator

        cold = BatchSimulator(mixed_src, lanes=3)
        hits = []
        get = cache.get

        def recording_get(kind, digest):
            payload = get(kind, digest)
            if payload is not None:
                hits.append(kind)
            return payload

        monkeypatch.setattr(cache, "get", recording_get)
        warm = BatchSimulator(mixed_src, lanes=3)
        assert "program" in hits  # the walk's schedule came from the cache
        rng = random.Random(1)
        for _ in range(20):
            for name in ("a", "b"):
                row = [rng.randrange(256) for _ in range(3)]
                cold.poke(name, row)
                warm.poke(name, row)
            cold.step()
            warm.step()
        for name in ("out", "flag"):
            assert cold.peek(name) == warm.peek(name)

    def test_corrupted_artifacts_fall_back_to_recompute(self, mixed_src, cache):
        from repro.shard import ShardedBatchSimulator

        reference = ShardedBatchSimulator(mixed_src, lanes=2, num_partitions=2)
        # Smash every artifact the build produced.
        for entry in cache.entries():
            entry.path.write_bytes(b"\x80garbage")
        rebuilt = ShardedBatchSimulator(mixed_src, lanes=2, num_partitions=2)
        assert cache.stats.corrupt_drops > 0
        for sim in (reference, rebuilt):
            sim.poke("a", [5, 9])
            sim.poke("b", [7, 7])
            sim.step(4)
        assert rebuilt.peek("out") == reference.peek("out")

    def test_process_executor_ships_cache_keys(self, mixed_src, cache):
        from repro.shard import ShardedBatchSimulator

        with ShardedBatchSimulator(
            mixed_src, lanes=2, num_partitions=2, executor="process"
        ) as sim:
            assert any(e.kind == "pgraph" for e in cache.entries())
            scalar = Simulator(mixed_src)
            rng = random.Random(9)
            for _ in range(6):
                a, b = rng.randrange(256), rng.randrange(256)
                sim.poke("a", a)
                sim.poke("b", b)
                scalar.poke("a", a)
                scalar.poke("b", b)
                sim.step()
                scalar.step()
            assert sim.peek("out") == [scalar.peek("out")] * 2


# ----------------------------------------------------------------------
# Lane export/import (the unit of session preemption)
# ----------------------------------------------------------------------
class TestLaneTransfer:
    def test_batch_lane_roundtrip(self, mixed_src):
        from repro.batch import BatchSimulator

        sim = BatchSimulator(mixed_src, lanes=3)
        sim.poke("a", [1, 2, 3])
        sim.poke("b", [4, 5, 6])
        sim.step(5)
        state = sim.export_lane(1)
        other = BatchSimulator(mixed_src, lanes=2)
        other.import_lane(0, state)
        assert other.peek("out")[0] == sim.peek("out")[1]

    def test_shard_lane_cut_validation(self, mixed_src):
        from repro.shard import ShardedBatchSimulator

        one = ShardedBatchSimulator(mixed_src, lanes=2, num_partitions=1)
        two = ShardedBatchSimulator(mixed_src, lanes=2, num_partitions=2)
        state = one.export_lane(0)
        with pytest.raises(ValueError, match="different partitioning"):
            two.import_lane(0, state)

    def test_shard_lane_roundtrip_continues_lockstep(self, mixed_src):
        from repro.shard import ShardedBatchSimulator

        sim = ShardedBatchSimulator(mixed_src, lanes=3, num_partitions=2)
        scalar = Simulator(mixed_src)
        rng = random.Random(4)
        for _ in range(5):
            a, b = rng.randrange(256), rng.randrange(256)
            sim.poke_lane("a", 2, a)
            sim.poke_lane("b", 2, b)
            scalar.poke("a", a)
            scalar.poke("b", b)
            sim.step()
            scalar.step()
        other = ShardedBatchSimulator(mixed_src, lanes=2, num_partitions=2)
        other.import_lane(1, sim.export_lane(2))
        for _ in range(5):
            a, b = rng.randrange(256), rng.randrange(256)
            other.poke_lane("a", 1, a)
            other.poke_lane("b", 1, b)
            scalar.poke("a", a)
            scalar.poke("b", b)
            other.step()
            scalar.step()
        assert other.peek("out")[1] == scalar.peek("out")
        assert other.peek("flag")[1] == scalar.peek("flag")


# ----------------------------------------------------------------------
# The fleet
# ----------------------------------------------------------------------
class TestLaneFleet:
    def _drive_lockstep(self, sessions, scalars, inputs, cycles, rngs):
        for _ in range(cycles):
            for rng, session, scalar in zip(rngs, sessions, scalars):
                for name in inputs:
                    value = rng.randrange(1 << 16)
                    session.poke(name, value)
                    scalar.poke(name, value)
            for session in sessions:
                session.step(1)
            for scalar in scalars:
                scalar.step()

    @pytest.mark.parametrize("engine,kwargs", [
        ("batch", {}),
        ("shard", {"num_partitions": 2, "partitioner": "refined"}),
    ])
    def test_eight_sessions_match_scalar(self, engine, kwargs):
        from repro.designs.registry import compiled_graph
        from repro.serve.fleet import LaneFleet

        source = get_design(ROCKET)
        graph = compiled_graph(ROCKET)
        inputs = sorted(graph.inputs)
        watch = sorted(graph.outputs)
        with LaneFleet(source, engine=engine, lanes=4, max_members=2,
                       **kwargs) as fleet:
            sessions = [fleet.open_session() for _ in range(8)]
            assert fleet.num_members == 2
            scalars = [Simulator(source) for _ in range(8)]
            rngs = [random.Random(50 + i) for i in range(8)]
            self._drive_lockstep(sessions, scalars, inputs, 8, rngs)
            for index, (session, scalar) in enumerate(zip(sessions, scalars)):
                assert session.cycle == 8
                for name in watch:
                    assert session.peek(name) == scalar.peek(name), (
                        engine, index, name
                    )

    def test_fleet_full_and_lane_recycling(self, mixed_src):
        from repro.serve.fleet import FleetFullError, LaneFleet

        with LaneFleet(mixed_src, engine="batch", lanes=2,
                       max_members=1) as fleet:
            first = fleet.open_session()
            second = fleet.open_session()
            with pytest.raises(FleetFullError):
                fleet.open_session()
            first.poke("a", 200)
            first.step(1)
            second.step(1)
            first.close()
            # A fresh checkout on the recycled lane sees pristine state.
            fresh_scalar = Simulator(mixed_src)
            third = fleet.open_session()
            assert third.peek("out") == fresh_scalar.peek("out")
            assert third.cycle == 0

    def test_coalescing_barrier_bursts_min_pending(self, mixed_src):
        from repro.serve.fleet import LaneFleet

        with LaneFleet(mixed_src, engine="batch", lanes=2,
                       max_members=1) as fleet:
            fast = fleet.open_session()
            slow = fleet.open_session()
            advanced = fast.step(5)
            assert advanced == 0 and fast.pending == 5
            slow.step(2)
            assert fast.cycle == 2 and fast.pending == 3
            assert slow.cycle == 2 and slow.pending == 0
            slow.step(3)
            assert fast.cycle == 5 and fast.pending == 0

    def test_closing_a_sibling_unblocks_the_barrier(self, mixed_src):
        from repro.serve.fleet import LaneFleet

        with LaneFleet(mixed_src, engine="batch", lanes=2,
                       max_members=1) as fleet:
            runner = fleet.open_session()
            idler = fleet.open_session()
            runner.step(3)
            assert runner.cycle == 0
            idler.close()
            assert runner.cycle == 3 and runner.pending == 0

    def test_blocking_step_coalesces_across_threads(self, mixed_src):
        from repro.serve.fleet import LaneFleet

        with LaneFleet(mixed_src, engine="batch", lanes=4,
                       max_members=1) as fleet:
            sessions = [fleet.open_session() for _ in range(4)]
            errors = []

            def drive(session):
                try:
                    for _ in range(5):
                        session.poke("a", session.lane + 1)
                        assert session.step(1, wait=True, timeout=30) == 1
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(s,))
                       for s in sessions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert all(s.cycle == 5 for s in sessions)

    def test_checkpoint_restore_rewinds(self, mixed_src):
        from repro.serve.fleet import LaneFleet

        with LaneFleet(mixed_src, engine="batch", lanes=1,
                       max_members=2) as fleet:
            session = fleet.open_session()
            session.poke("a", 11)
            session.poke("b", 22)
            session.step(4)
            mark = session.checkpoint()
            out_at_mark = session.peek("out")
            session.poke("a", 99)
            session.step(3)
            assert session.cycle == 7
            session.restore(mark)
            assert session.cycle == 4
            assert session.peek("out") == out_at_mark

    def test_migration_preserves_state_and_stimulus(self, mixed_src):
        from repro.serve.fleet import LaneFleet

        with LaneFleet(mixed_src, engine="shard", lanes=1, max_members=2,
                       num_partitions=2) as fleet:
            session = fleet.open_session()
            scalar = Simulator(mixed_src)
            rng = random.Random(6)
            for _ in range(5):
                a, b = rng.randrange(256), rng.randrange(256)
                session.poke("a", a)
                session.poke("b", b)
                scalar.poke("a", a)
                scalar.poke("b", b)
                session.step(1)
                scalar.step()
            origin = session.member
            fleet.migrate(session)
            assert session.member != origin
            assert fleet.num_members == 2
            for _ in range(5):
                a, b = rng.randrange(256), rng.randrange(256)
                session.poke("a", a)
                session.poke("b", b)
                scalar.poke("a", a)
                scalar.poke("b", b)
                session.step(1)
                scalar.step()
            assert session.peek("out") == scalar.peek("out")
            assert session.peek("flag") == scalar.peek("flag")

    def test_closed_session_surface_raises(self, mixed_src):
        from repro.serve.fleet import LaneFleet

        with LaneFleet(mixed_src, engine="batch", lanes=1) as fleet:
            session = fleet.open_session()
            session.close()
            session.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                session.poke("a", 1)
            with pytest.raises(RuntimeError, match="closed"):
                session.step(1)


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------
class TestFleetServer:
    def test_wire_roundtrip_single_session(self, mixed_src):
        from repro.serve.fleet import LaneFleet
        from repro.serve.server import FleetClient, serve_in_thread

        with LaneFleet(mixed_src, engine="batch", lanes=1,
                       max_members=1) as fleet:
            with serve_in_thread(fleet) as handle:
                host, port = handle.address
                with FleetClient(host, port) as client:
                    info = client.info()
                    assert info["engine"] == "batch"
                    assert info["capacity"] == 1
                    session = client.open_session()
                    scalar = Simulator(mixed_src)
                    rng = random.Random(2)
                    for _ in range(6):
                        a, b = rng.randrange(256), rng.randrange(256)
                        session.poke("a", a)
                        session.poke("b", b)
                        scalar.poke("a", a)
                        scalar.poke("b", b)
                        assert session.step(1, timeout=30) == 1
                        scalar.step()
                    assert session.cycle == 6
                    assert session.peek("out") == scalar.peek("out")
                    # Checkpoint round-trips through JSON.
                    state = session.checkpoint()
                    out_before = session.peek("out")
                    session.poke("a", 255)
                    session.step(2, timeout=30)
                    session.restore(state)
                    assert session.cycle == 6
                    assert session.peek("out") == out_before
                    session.close()

    def test_errors_cross_the_wire_typed(self, mixed_src):
        from repro.serve.fleet import LaneFleet
        from repro.serve.server import FleetClient, serve_in_thread

        with LaneFleet(mixed_src, engine="batch", lanes=1,
                       max_members=1) as fleet:
            with serve_in_thread(fleet) as handle:
                host, port = handle.address
                with FleetClient(host, port) as client:
                    session = client.open_session()
                    with pytest.raises(KeyError):
                        session.poke("not_an_input", 1)
                    with pytest.raises(KeyError):
                        client.call(op="peek", session=999, name="out")
                    with pytest.raises((ValueError, RuntimeError)):
                        client.call(op="frobnicate")
                    # The fleet is full; a second open is a typed error.
                    from repro.serve.fleet import FleetFullError

                    with pytest.raises(FleetFullError):
                        client.open_session()
                    session.close()

    def test_disconnect_closes_sessions(self, mixed_src):
        import time

        from repro.serve.fleet import LaneFleet
        from repro.serve.server import FleetClient, serve_in_thread

        with LaneFleet(mixed_src, engine="batch", lanes=1,
                       max_members=1) as fleet:
            with serve_in_thread(fleet) as handle:
                host, port = handle.address
                client = FleetClient(host, port)
                client.open_session()
                assert fleet.open_session_count == 1
                client.close()
                deadline = time.monotonic() + 10
                while (fleet.open_session_count and
                       time.monotonic() < deadline):
                    time.sleep(0.02)
                assert fleet.open_session_count == 0

    def test_concurrent_remote_sessions_coalesce(self, mixed_src):
        from repro.serve.fleet import LaneFleet
        from repro.serve.server import connect_session, serve_in_thread

        with LaneFleet(mixed_src, engine="batch", lanes=4,
                       max_members=1) as fleet:
            with serve_in_thread(fleet) as handle:
                host, port = handle.address
                results = [None] * 4
                errors = []

                def drive(index):
                    try:
                        session = connect_session(host, port)
                        rng = random.Random(70 + index)
                        trace = []
                        for _ in range(5):
                            a = rng.randrange(256)
                            b = rng.randrange(256)
                            session.poke("a", a)
                            session.poke("b", b)
                            trace.append((a, b))
                            assert session.step(1, timeout=60) == 1
                        results[index] = (
                            trace, session.peek("out"), session.peek("flag")
                        )
                        session.close()
                    except Exception as exc:
                        errors.append((index, exc))

                threads = [threading.Thread(target=drive, args=(i,))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not errors, errors
                for trace, out, flag in results:
                    scalar = Simulator(mixed_src)
                    for a, b in trace:
                        scalar.poke("a", a)
                        scalar.poke("b", b)
                        scalar.step()
                    assert out == scalar.peek("out")
                    assert flag == scalar.peek("flag")


# ----------------------------------------------------------------------
# Lane-aware DMI frontend
# ----------------------------------------------------------------------
class TestLaneAwareDmi:
    def test_lane_on_scalar_rejected(self, mixed_src):
        from repro.sim.dmi import FrontendServer

        with pytest.raises(TypeError, match="scalar"):
            FrontendServer(Simulator(mixed_src), lane=0)

    def test_batched_without_lane_rejected(self, mixed_src):
        from repro.batch import BatchSimulator
        from repro.sim.dmi import FrontendServer

        with pytest.raises(ValueError, match="lane"):
            FrontendServer(BatchSimulator(mixed_src, lanes=2))

    def test_lane_frontend_matches_scalar_frontend(self):
        from repro.batch import BatchSimulator
        from repro.designs.cores import rocket_soc
        from repro.sim.dmi import FrontendServer

        source = rocket_soc(1)
        scalar = Simulator(source)
        scalar_fesvr = FrontendServer(scalar)
        batched = BatchSimulator(source, lanes=3)
        lane_fesvr = FrontendServer(batched, lane=1)
        words = [17, 34, 51]
        scalar_fesvr.load_image(4, words)
        lane_fesvr.load_image(4, words)
        scalar_cycles = scalar_fesvr.run_until_idle()
        lane_cycles = lane_fesvr.run_until_idle()
        assert lane_cycles == scalar_cycles
        assert (
            [t.response for t in lane_fesvr.completed]
            == [t.response for t in scalar_fesvr.completed]
        )
        read_scalar = scalar_fesvr.read(5)
        read_lane = lane_fesvr.read(5)
        scalar_fesvr.run_until_idle()
        lane_fesvr.run_until_idle()
        assert read_lane.response == read_scalar.response

    def test_session_hosts_a_frontend(self):
        """A fleet session composes with the scalar FrontendServer --
        the 'checked-out lane behaves like a private simulator' claim."""
        from repro.designs.cores import rocket_soc
        from repro.serve.fleet import LaneFleet
        from repro.sim.dmi import FrontendServer

        source = rocket_soc(1)
        with LaneFleet(source, engine="batch", lanes=2,
                       max_members=1) as fleet:
            session = fleet.open_session()
            sibling = fleet.open_session()
            fesvr = FrontendServer(session)  # session is scalar-shaped
            fesvr.write(3, 77)
            read = fesvr.read(3)
            cycles = 0
            while not fesvr.idle and cycles < 1000:
                fesvr.tick()
                session.step(1)
                sibling.step(1)
                cycles += 1
            assert read.response == 77

            scalar = Simulator(source)
            ref = FrontendServer(scalar)
            ref.write(3, 77)
            ref_read = ref.read(3)
            ref.run_until_idle()
            assert read.response == ref_read.response
