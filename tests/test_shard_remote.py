"""The shard channels beyond the shared lockstep matrix: fault injection
on every out-of-process channel (pipe, shm, socket), hostile frames
against live workers, cache-keyed graph shipping, the socket topology
and the shared-memory lane planes.  The codec itself is tested in
test_wire.py."""

import os
import pickle
import signal
import socket
import time

import pytest

from repro import wire
from repro.batch import HAS_NUMPY
from repro.designs.registry import compiled_graph
from repro.graph.dfg import graph_to_doc
from repro.serve import artifacts
from repro.shard import ShardedBatchSimulator, executors
from repro.shard.executors import PipeChannel, _is_pgraph_cache_miss
from repro.shard.remote import _parse_host, spawn_local_workers
from repro.shard.worker import WorkerCore, mp_context, serve
from repro.workloads.stimulus import batched_workload_for

LANES = 2
CYCLES = 6

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="shm lane planes need NumPy"
)
#: Every channel that puts a worker in another process.
CHANNELS = {
    "pipe": dict(executor="process", shm_planes=False),
    "shm": dict(executor="process", shm_planes=True),
    "socket": dict(executor="socket"),
}


@pytest.fixture(params=[
    "pipe", pytest.param("shm", marks=needs_numpy), "socket",
])
def channel(request):
    return CHANNELS[request.param]


def _reap(procs):
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)


def _shm_segments():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - no POSIX shm mount
        pytest.skip("no /dev/shm to inspect")


def _lockstep(design, cycles=CYCLES, lanes=LANES, **shard_kwargs):
    """Run a sharded sim against a serial-executor reference, bit-exact
    on every output every cycle; returns the sharded sim's transport."""
    graph = compiled_graph(design)
    workload = batched_workload_for(design, lanes)
    outputs = sorted(graph.outputs)
    with ShardedBatchSimulator(
        graph, lanes=lanes, num_partitions=1
    ) as reference, ShardedBatchSimulator(
        graph, lanes=lanes, **shard_kwargs
    ) as shard:
        for cycle in range(cycles):
            workload.apply(reference, cycle)
            workload.apply(shard, cycle)
            reference.step()
            shard.step()
            for name in outputs:
                assert shard.peek(name) == reference.peek(name), (
                    f"{design}: divergence on {name!r} at cycle {cycle}"
                )
        return shard.transport


def _counts_to(sim, cycles):
    sim.poke("enable", 1)
    sim.step(cycles)
    assert sim.peek("count") == [cycles] * LANES


# ----------------------------------------------------------------------
# Worker faults, on every channel
# ----------------------------------------------------------------------
class TestWorkerFaults:
    def test_sigkilled_worker_is_named_and_close_is_bounded(
        self, counter_src, channel
    ):
        before = _shm_segments()
        sim = ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2, **channel
        )
        try:
            _counts_to(sim, 1)
            label = sim.executor._channels[1].label
            victim = sim.executor._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            with pytest.raises(RuntimeError, match="shard worker") as caught:
                sim.step(4)
            assert f"shard worker {label}" in str(caught.value)
        finally:
            start = time.monotonic()
            sim.close()
            # Well under close_timeout: nothing waited on the dead worker.
            assert time.monotonic() - start < 3
        assert _shm_segments() <= before
        # The failure does not poison the design: a fresh executor works.
        with ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2, **channel
        ) as fresh:
            _counts_to(fresh, 1)

    def test_wedged_worker_close_is_bounded(self, counter_src, channel):
        """close() on a SIGSTOPped worker falls through the bounded ack
        wait to terminate/kill instead of blocking forever."""
        before = _shm_segments()
        sim = ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2, **channel
        )
        sim.executor.close_timeout = 0.5
        procs = list(sim.executor._procs)
        os.kill(procs[0].pid, signal.SIGSTOP)
        try:
            start = time.monotonic()
            sim.close()
            elapsed = time.monotonic() - start
            assert elapsed < 15, f"close() took {elapsed:.1f}s on a wedge"
            for proc in procs:
                assert not proc.is_alive()
        finally:
            for proc in procs:  # belt and braces if close() failed
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGCONT)
            _reap(procs)
        assert _shm_segments() <= before

    def test_clean_close_is_prompt_and_leaves_nothing(
        self, counter_src, channel
    ):
        """No channel waits out a timeout to close: auto-spawned socket
        workers exit with their session (5 s *each* before that)."""
        before = _shm_segments()
        sim = ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2, **channel
        )
        procs = list(sim.executor._procs)
        assert len(procs) == 2
        _counts_to(sim, 2)
        if channel.get("shm_planes"):
            assert _shm_segments() - before, "planes live in /dev/shm"
        start = time.monotonic()
        sim.close()
        assert time.monotonic() - start < 1
        assert not any(proc.is_alive() for proc in procs)
        assert _shm_segments() <= before

    def test_failed_constructor_leaves_nothing(
        self, counter_src, channel, monkeypatch
    ):
        """A worker-side setup error propagates with its traceback (no
        retry that would bury it) and takes workers and planes along."""
        monkeypatch.setattr(
            executors, "_graph_ref",
            lambda partition, in_process: {"doc": {"name": "broken"}},
        )
        before = _shm_segments()
        with pytest.raises(RuntimeError, match="Traceback"):
            ShardedBatchSimulator(
                counter_src, lanes=LANES, num_partitions=2, **channel
            )
        assert _shm_segments() <= before


class TestStateLengthValidation:
    @pytest.mark.parametrize("executor", ("serial", "process", "socket"))
    def test_mismatched_lengths_raise(self, counter_src, executor):
        with ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2, executor=executor
        ) as sim:
            ex = sim.executor
            with pytest.raises(ValueError, match="expected 2"):
                ex.apply_sync([{}])
            with pytest.raises(ValueError, match="restore"):
                ex.restore(ex.snapshot()[:1])
            with pytest.raises(ValueError, match="import_lane"):
                ex.import_lane(0, ex.export_lane(0)[:1])
            _counts_to(sim, 1)  # and the session is still usable


# ----------------------------------------------------------------------
# Hostile frames against live workers
# ----------------------------------------------------------------------
class _Bomb:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


@pytest.fixture
def worker():
    hosts, procs = spawn_local_workers(1)
    yield _parse_host(hosts[0]), procs[0]
    _reap(procs)


def _connect(address):
    sock = socket.create_connection(address, timeout=10)
    return sock


def _session_works(address, counter_src):
    with ShardedBatchSimulator(
        counter_src, lanes=LANES, num_partitions=2, executor="socket",
        hosts=[address],
    ) as sim:
        _counts_to(sim, 2)


class TestHostileFrames:
    def test_pickle_bomb_is_never_loaded(self, worker, tmp_path, counter_src):
        address, proc = worker
        canary = tmp_path / "pwned"
        with _connect(address) as sock:
            sock.sendall(_frame(pickle.dumps(("setup", _Bomb(str(canary))))))
            status, text = wire.recv_frame(sock)
            assert status == "err" and "malformed frame" in text
            assert sock.recv(1) == b""  # the session is over
        assert not canary.exists()
        assert proc.is_alive()
        _session_works(address, counter_src)

    @pytest.mark.parametrize("garbage", [
        _frame(b"\x00" * 20),                      # not JSON
        _frame(b'{"op":"step"}'),                  # not a list
        _frame(b"5"),
        _frame(b"[]"),                             # no op
        _frame(b'["step"]'),
        (wire.MAX_FRAME + 1).to_bytes(4, "big"),   # oversized prefix
    ], ids=["binary", "dict", "scalar", "empty", "no-args", "oversized"])
    def test_malformed_frame_ends_only_that_session(
        self, worker, counter_src, garbage
    ):
        address, proc = worker
        with _connect(address) as sock:
            sock.sendall(garbage)
            status, text = wire.recv_frame(sock)
            assert status == "err" and "malformed frame" in text
            assert sock.recv(1) == b""
        assert proc.is_alive()
        _session_works(address, counter_src)

    @pytest.mark.parametrize("partial", [b"\x00\x00", _frame(b"[]")[:-1]],
                             ids=["prefix", "body"])
    def test_truncated_frame_ends_only_that_session(
        self, worker, counter_src, partial
    ):
        address, proc = worker
        with _connect(address) as sock:
            sock.sendall(partial)
        _session_works(address, counter_src)
        assert proc.is_alive()

    def test_unknown_or_untimely_op_is_an_error_reply(self, worker):
        """A well-formed frame the worker cannot act on is answered and
        the session carries on."""
        address, _proc = worker
        with _connect(address) as sock:
            for message in (["nope", None], [7, None], ["_clear", None],
                            ["peek", [0, "count"]], ["setup", {"lanes": 1}]):
                wire.send_frame(sock, message)
                status, _text = wire.recv_frame(sock)
                assert status == "err", message
            wire.send_frame(sock, ["close", None])
            assert wire.recv_frame(sock) == ["ok", None]

    def test_pipe_worker_answers_garbage_and_exits_cleanly(self):
        ctx = mp_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=serve, args=(PipeChannel(child), WorkerCore(shm=True))
        )
        proc.start()
        child.close()
        try:
            parent.send_bytes(pickle.dumps(("step", None)))
            status, text = PipeChannel(parent).recv(timeout=10)
            assert status == "err" and "malformed frame" in text
            proc.join(timeout=10)
            assert proc.exitcode == 0
        finally:
            parent.close()
            _reap([proc])


def _setup_spec(graph_ref, planes=None):
    return ["setup", {
        "lanes": 1, "kernel": "PSU", "backend": "auto", "routes": [],
        "partitions": [{"graph": graph_ref, "exports": [], "report": [],
                        "planes": planes}],
    }]


class TestWorkerTrustsNoPath:
    """Setup resolves cache keys against the worker's own cache only."""

    @pytest.mark.parametrize("digest", [
        "../../etc/passwd", "0" * 63, "0" * 65, "A" * 64, 7, None,
        ["0" * 64],
    ])
    def test_digest_must_be_64_hex(self, worker, digest):
        address, _proc = worker
        with _connect(address) as sock:
            wire.send_frame(sock, _setup_spec({"cache": digest}))
            status, text = wire.recv_frame(sock)
            assert status == "err" and "64 lowercase hex" in text
            assert not _is_pgraph_cache_miss(text)

    def test_peer_named_cache_root_is_never_opened(self, worker, tmp_path):
        """The parent commit's ``("cache", root, digest)`` reference made
        the worker create and read ``root``."""
        address, _proc = worker
        root = tmp_path / "peer-chosen"
        with _connect(address) as sock:
            for ref in (["cache", str(root), "0" * 64],
                        {"cache": "0" * 64, "root": str(root)}):
                wire.send_frame(sock, _setup_spec(ref))
                assert wire.recv_frame(sock)[0] == "err"
        assert not root.exists()

    def test_absent_entry_is_the_retryable_miss(self, worker):
        address, _proc = worker
        with _connect(address) as sock:
            wire.send_frame(sock, _setup_spec({"cache": "0" * 64}))
            status, text = wire.recv_frame(sock)
            assert status == "err" and _is_pgraph_cache_miss(text)

    def test_socket_worker_attaches_no_shm_segment(self, worker, counter_src):
        address, _proc = worker
        graph = ShardedBatchSimulator(counter_src, lanes=1).result.partitions[0].graph
        planes = {"segments": [["psm_someone_elses", 1]], "index": 0,
                  "imports": {}}
        with _connect(address) as sock:
            wire.send_frame(
                sock, _setup_spec({"doc": graph_to_doc(graph)}, planes)
            )
            status, text = wire.recv_frame(sock)
            assert status == "err" and "shared-memory planes" in text


# ----------------------------------------------------------------------
# Cache-keyed graph shipping
# ----------------------------------------------------------------------
class TestGraphShipping:
    def test_is_pgraph_cache_miss(self):
        assert _is_pgraph_cache_miss(
            "RuntimeError: pgraph cache entry ab12cd34ef56 missing from /x"
        )
        assert not _is_pgraph_cache_miss("ValueError: genuine failure")
        assert not _is_pgraph_cache_miss("")

    @pytest.mark.parametrize("executor", ("process", "socket"))
    def test_stale_cache_ref_retries_inline(
        self, counter_src, executor, monkeypatch
    ):
        """A pgraph key no worker can resolve is followed by the inline
        graph on the same channel instead of failing the build."""
        monkeypatch.setattr(
            executors, "_graph_ref",
            lambda partition, in_process: {"cache": "0" * 64},
        )
        with ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2, executor=executor
        ) as sim:
            _counts_to(sim, 3)

    @pytest.mark.parametrize("executor", ("process", "socket"))
    def test_warm_cache_ships_keys_only(
        self, counter_src, executor, tmp_path, monkeypatch
    ):
        """With an active cache the workers (which inherit it) resolve
        the keys themselves: no graph document is ever built."""
        def no_documents(graph):
            raise AssertionError("inline graph shipped despite the cache")

        monkeypatch.setattr(executors, "graph_to_doc", no_documents)
        cache = artifacts.configure_cache(tmp_path / "cache")
        try:
            with ShardedBatchSimulator(
                counter_src, lanes=LANES, num_partitions=2, executor=executor
            ) as sim:
                _counts_to(sim, 3)
            assert any(e.kind == "pgraph" for e in cache.entries())
        finally:
            artifacts.disable_cache()


# ----------------------------------------------------------------------
# Socket topology
# ----------------------------------------------------------------------
class TestSocketTopology:
    def test_parse_host(self):
        assert _parse_host("10.0.0.2:7001") == ("10.0.0.2", 7001)
        assert _parse_host(("box", 7002)) == ("box", 7002)
        host, port = _parse_host("box")
        assert host == "box" and port > 0  # DEFAULT_PORT

    def test_multiple_partitions_per_worker(self):
        """P=4 over 2 workers: host-local routes are applied worker-side
        and the result still matches the serial reference."""
        hosts, procs = spawn_local_workers(2)
        try:
            transport = _lockstep(
                "gemmini-8", num_partitions=4, executor="socket",
                hosts=hosts,
            )
            assert transport == "socket"
        finally:
            _reap(procs)

    def test_snapshot_restore_over_socket(self):
        graph = compiled_graph("gemmini-8")
        workload = batched_workload_for("gemmini-8", LANES)
        outputs = sorted(graph.outputs)
        with ShardedBatchSimulator(
            graph, lanes=LANES, num_partitions=2, executor="socket"
        ) as sim:
            for cycle in range(3):
                workload.apply(sim, cycle)
                sim.step()
            snap = sim.snapshot()
            mark = {name: sim.peek(name) for name in outputs}
            for cycle in range(3, 6):
                workload.apply(sim, cycle)
                sim.step()
            sim.restore(snap)
            assert sim.cycle == 3
            assert {name: sim.peek(name) for name in outputs} == mark

    def test_worker_serves_sequential_sessions(self, counter_src):
        """A worker outlives an executor: after close(), a fresh
        coordinator can connect to the same host."""
        hosts, procs = spawn_local_workers(1)
        try:
            for _ in range(2):
                with ShardedBatchSimulator(
                    counter_src, lanes=LANES, num_partitions=2,
                    executor="socket", hosts=hosts,
                ) as sim:
                    _counts_to(sim, 2)
        finally:
            _reap(procs)

    def test_hosts_rejected_elsewhere(self, counter_src):
        with pytest.raises(ValueError, match="hosts="):
            ShardedBatchSimulator(
                counter_src, lanes=LANES, num_partitions=2,
                executor="process", hosts=["127.0.0.1:1"],
            )

    def test_shm_planes_rejected_on_socket(self, counter_src):
        with pytest.raises(ValueError, match="shm_planes="):
            ShardedBatchSimulator(
                counter_src, lanes=LANES, num_partitions=2,
                executor="socket", shm_planes=True,
            )


# ----------------------------------------------------------------------
# Shared-memory lane planes
# ----------------------------------------------------------------------
@needs_numpy
class TestShmPlanes:
    def test_auto_uses_shm_on_u64_design(self):
        transport = _lockstep(
            "gemmini-8", num_partitions=2, executor="process"
        )
        assert transport == "shm"

    def test_wide_design_falls_back_to_pipes(self):
        with ShardedBatchSimulator(
            compiled_graph("sha3"), lanes=LANES, num_partitions=2,
            executor="process",
        ) as sim:
            assert sim.transport == "pipe"

    def test_forcing_shm_on_wide_design_raises(self):
        with pytest.raises(RuntimeError, match="shm_planes=True but"):
            ShardedBatchSimulator(
                compiled_graph("sha3"), lanes=LANES, num_partitions=2,
                executor="process", shm_planes=True,
            )

    def test_forcing_pipes_is_honoured(self, counter_src):
        with ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2,
            executor="process", shm_planes=False,
        ) as sim:
            assert sim.transport == "pipe"
            _counts_to(sim, 3)

    def test_restore_invalidates_change_mask(self, counter_src):
        """After restore() the next exchange reports every row, even
        rows whose plane value happens to equal the pre-restore value
        (the change mask must not suppress against stale history)."""
        with ShardedBatchSimulator(
            counter_src, lanes=LANES, num_partitions=2, executor="process"
        ) as sim:
            assert sim.transport == "shm"
            sim.poke("enable", 1)
            sim.step(2)
            snap = sim.snapshot()
            mark = sim.peek("count")
            sim.step(3)
            sim.restore(snap)
            assert sim.peek("count") == mark
            sim.step()
            assert sim.peek("count") == [v + 1 for v in mark]

    def test_differential_counters_still_track(self):
        """Plane rows suppressed by the parent-side change mask count as
        suppressed traffic, as they did over pipes."""
        with ShardedBatchSimulator(
            compiled_graph("gemmini-8"), lanes=LANES, num_partitions=2,
            executor="process",
        ) as sim:
            assert sim.transport == "shm"
            workload = batched_workload_for("gemmini-8", LANES)
            for cycle in range(6):
                workload.apply(sim, cycle)
                sim.step()
            assert sim.sync_sent > 0
            assert 0.0 <= sim.differential_savings <= 1.0
