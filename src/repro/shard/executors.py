"""The shard coordinator: P partitions behind channels, one barrier a cycle.

The sharded simulator's bulk-synchronous schedule needs a small command
set per partition -- poke, step-and-collect-exports, apply-sync, peek,
reset, checkpoint.  :class:`~repro.shard.worker.WorkerCore` implements
it once; :class:`ChannelExecutor` drives it once, over a
partition -> (channel, local index) map.  An ``executor=`` name only
chooses what the channels are:

* ``serial`` -- one in-process channel per partition, stepped in index
  order.  The deterministic reference: zero concurrency, zero IPC.
* ``thread`` -- the same channels with ``step`` running on a thread
  pool: GIL-bound for the Python-level walk loops, it pays off for
  kernels that release the GIL.
* ``process`` -- one forked worker process per partition on a
  ``multiprocessing`` pipe.  Lane rows cross as JSON int lists, or --
  when every partition fits the u64 plane and NumPy is present -- through
  shared-memory lane planes (``transport="shm"``,
  :mod:`repro.shard.planes`).  This is the executor that buys wall-clock
  parallelism for heavy partitions.
* ``socket`` -- one TCP channel per ``shard-worker`` host, partitions
  spread round-robin over the hosts (:mod:`repro.shard.remote`).

Every channel carries the same :mod:`repro.wire` frames.  The exchange
schedule is static, derived once from the RUM routes: a route leg whose
writer and reader share a channel is applied worker-side, and only rows
with a reader elsewhere are reported to the coordinator.  The per-cycle
protocol is two phases: broadcast ``step`` and gather each partition's
reported export rows, then scatter the per-reader sync updates -- Cascade
2's ``LI[c+1] = LI[c,I] . RUM`` realised as batched lane-vector
exchanges.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import wire
from ..graph.dfg import graph_to_doc
from ..kernels.activity import ActivityStats
from ..repcut.partition import Partition
from .planes import ExportRows, LanePlanes, shm_eligibility
from .remote import SocketChannel, spawn_local_workers
from .worker import PEER_GONE, WorkerCore, mp_context, serve

EXECUTORS = ("serial", "thread", "process", "socket")


class InlineChannel:
    """A :class:`WorkerCore` in this process.  Commands run at ``send``
    and worker-side exceptions propagate natively (no traceback
    marshalling); with a pool, ``step`` -- the one command worth
    overlapping -- runs on it so the channels' steps run concurrently."""

    def __init__(self, label: str, pool=None) -> None:
        self.label = label
        self._core = WorkerCore()
        self._pool = pool

    def send(self, message) -> None:
        handle = self._core.handle
        if self._pool is not None and message[0] == "step":
            self._pending = self._pool.submit(handle, *message).result
        else:
            result = handle(*message)
            self._pending = lambda: result

    def recv(self, timeout: Optional[float] = None):
        return ["ok", self._pending()]

    def close(self) -> None:
        pass


class PipeChannel:
    """One end of a ``multiprocessing`` pipe carrying whole frames."""

    def __init__(self, conn, label: str = "") -> None:
        self.label = label
        self._conn = conn

    def send(self, message) -> None:
        self._conn.send_bytes(wire.encode(message))

    def recv(self, timeout: Optional[float] = None):
        if timeout is not None and not self._conn.poll(timeout):
            raise TimeoutError(f"no frame within {timeout}s")
        return wire.decode_frame(self._conn.recv_bytes())

    def close(self) -> None:
        self._conn.close()


def _graph_ref(partition: Partition, in_process: bool) -> dict:
    """The smallest setup payload for a partition graph: the live object
    for an in-process channel, else a ``pgraph`` cache key when the
    artifact cache is active (publishing the graph first if needed),
    else the inline document."""
    from ..serve import artifacts

    if in_process:
        return {"graph": partition.graph}
    cache = artifacts.get_cache()
    if cache is not None:
        digest = artifacts.design_fingerprint(partition.graph, stage="pgraph")
        if (cache.get("pgraph", digest) is not None
                or cache.put("pgraph", digest, partition.graph) is not None):
            return {"cache": digest}
    return {"doc": graph_to_doc(partition.graph)}


def _is_pgraph_cache_miss(text) -> bool:
    """The one setup failure worth a retry: the worker could not
    resolve a ``pgraph`` cache key.  Anything else -- a genuine
    worker-side compile error -- would fail identically on retry and
    must surface as-is."""
    message = str(text)
    return "pgraph cache entry" in message and "missing" in message


class ChannelExecutor:
    """The command set the sharded simulator drives (see module docs).

    Keeps two measured step-time accumulators: ``step_total_seconds``
    (sum of every partition's kernel time) and ``step_max_seconds`` (sum
    over cycles of the *slowest* partition's time -- the barrier
    critical path, i.e. what a host with >= P free cores pays per
    cycle).

    ``routes`` is the RUM exchange schedule ``(name, writer, readers)``,
    the only thing the channels need to know; ``hosts`` and
    ``shm_planes`` are :class:`ShardedBatchSimulator`'s parameters.
    """

    #: Bounded wait for a worker's close acknowledgement and join; a
    #: wedged worker (stuck syscall, livelocked kernel) is terminated
    #: and, failing that, killed, instead of hanging close() forever.
    close_timeout = 5.0
    #: Loopback workers auto-spawned for ``executor="socket"``.
    LOCAL_WORKER_CAP = 4

    def __init__(
        self,
        name: str,
        partitions: Sequence[Partition],
        lanes: int,
        kernel,
        backend: str,
        routes: Sequence[Tuple[str, int, Tuple[int, ...]]] = (),
        hosts: Optional[Sequence] = None,
        shm_planes: Optional[bool] = None,
    ) -> None:
        if name not in EXECUTORS:
            raise KeyError(
                f"unknown executor {name!r}; choose from {', '.join(EXECUTORS)}"
            )
        if hosts is not None and name != "socket":
            raise ValueError(
                f"hosts= applies to the socket executor, not {name!r}"
            )
        if shm_planes is not None and name != "process":
            raise ValueError(
                f"shm_planes= applies to the process executor, not {name!r}"
            )
        self.name = name
        #: How lane rows move: "local", "pipe", "shm" or "socket".
        self.transport = {"process": "pipe", "socket": "socket"}.get(
            name, "local"
        )
        self.step_total_seconds = 0.0
        self.step_max_seconds = 0.0
        self._partitions = len(partitions)
        self._channels: list = []
        self._procs: list = []
        self._pool = None
        self._planes: Optional[LanePlanes] = None
        #: Lane state changed without a publish (reset, restore, import):
        #: the next plane report carries every row, not just changed ones.
        self._jumped = False
        if name == "process":
            eligible, reason = shm_eligibility(partitions, backend)
            if shm_planes and not eligible:
                raise RuntimeError(f"shm_planes=True but {reason}")
            if eligible if shm_planes is None else shm_planes:
                self.transport = "shm"
        try:
            self._open(hosts)
            self._setup(partitions, lanes, kernel, backend, routes)
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _open(self, hosts) -> None:
        """Open the channels and fix the partition -> (channel, local
        index) map: round-robin over socket hosts, else one channel per
        partition."""
        count = self._partitions
        if self.name == "socket":
            if hosts is None:
                hosts, self._procs = spawn_local_workers(
                    min(count, self.LOCAL_WORKER_CAP) or 1, sessions=1
                )
            if not hosts:
                raise ValueError("socket executor needs at least one host")
            self._members = [
                list(range(h, count, len(hosts))) for h in range(len(hosts))
            ]
            for host, members in zip(hosts, self._members):
                self._channels.append(SocketChannel.connect(host, members))
        else:
            self._members = [[p] for p in range(count)]
            if self.name == "thread":
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=max(1, count), thread_name_prefix="shard"
                )
            ctx = mp_context() if self.name == "process" else None
            for p in range(count):
                if ctx is None:
                    self._channels.append(InlineChannel(str(p), self._pool))
                    continue
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=serve, daemon=True,
                    args=(PipeChannel(child), WorkerCore(shm=True)),
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._channels.append(PipeChannel(parent, str(p)))
        self._home = {
            p: (h, local)
            for h, members in enumerate(self._members)
            for local, p in enumerate(members)
        }

    def _setup(self, partitions, lanes, kernel, backend, routes) -> None:
        """Derive the static exchange schedule from the routes and set
        every worker up, all channels in flight at once (workers compile
        concurrently)."""
        # A partition exports the rows others read.  Route legs inside
        # one channel are applied worker-side; a row is reported only if
        # some reader lives behind another channel.
        exports: List[list] = [[] for _ in partitions]
        report: List[list] = [[] for _ in partitions]
        self._self_applied: List[set] = [set() for _ in partitions]
        local_routes: List[list] = [[] for _ in self._channels]
        for name, writer, readers in routes:
            exports[writer].append(name)
            h, writer_local = self._home[writer]
            co_hosted = [r for r in readers if self._home[r][0] == h]
            if co_hosted:
                local_routes[h].append(
                    [writer_local, name, [self._home[r][1] for r in co_hosted]]
                )
                for r in co_hosted:
                    self._self_applied[r].add(name)
            if len(co_hosted) < len(readers):
                report[writer].append(name)
        if self.transport == "shm":  # the planes carry the rows instead
            self._planes = LanePlanes(lanes, exports, routes)
            report = [[] for _ in partitions]

        def spec(h: int, graphs: list) -> dict:
            return {
                "lanes": lanes,
                # A KernelConfig round-trips through its name.
                "kernel": getattr(kernel, "name", kernel),
                "backend": backend,
                "partitions": [
                    {
                        "graph": graph,
                        "exports": exports[p],
                        "report": report[p],
                        "planes": self._planes and self._planes.spec(p),
                    }
                    for p, graph in zip(self._members[h], graphs)
                ],
                "routes": local_routes[h],
            }

        # The cache key first (a few hundred bytes per graph); only a
        # worker that cannot resolve it is sent the inline document.
        in_process = self.transport == "local"
        refs = [[_graph_ref(partitions[p], in_process) for p in members]
                for members in self._members]
        for h in range(len(self._channels)):
            self._send(h, "setup", spec(h, refs[h]))
        self._styles = [""] * self._partitions
        for h, members in enumerate(self._members):
            try:
                styles = self._recv(h)
            except RuntimeError as exc:
                if not _is_pgraph_cache_miss(exc):
                    raise
                styles = self._call(h, "setup", spec(h, [
                    {"doc": graph_to_doc(partitions[p].graph)}
                    for p in members
                ]))
            for p, style in zip(members, styles):
                self._styles[p] = style

    # ------------------------------------------------------------------
    # Channel traffic
    # ------------------------------------------------------------------
    def _gone(self, h: int, what: str, exc: Exception) -> RuntimeError:
        return RuntimeError(
            f"shard worker {self._channels[h].label} {what} "
            f"({type(exc).__name__}: {exc}); close() this executor and "
            "build a fresh one"
        )

    def _send(self, h: int, op: str, args=None) -> None:
        try:
            self._channels[h].send([op, args])
        except PEER_GONE as exc:
            raise self._gone(h, "is gone", exc) from exc

    def _recv(self, h: int):
        try:
            status, payload = self._channels[h].recv()
        except PEER_GONE + (ValueError,) as exc:  # incl. wire.FrameError
            raise self._gone(h, "died mid-command", exc) from exc
        if status != "ok":
            raise RuntimeError(
                f"shard worker {self._channels[h].label} failed:\n{payload}"
            )
        return payload

    def _call(self, h: int, op: str, args=None):
        self._send(h, op, args)
        return self._recv(h)

    def _gather(self, op: str, args=None) -> list:
        """Broadcast an op whose reply is one payload per local
        partition; reassemble into global partition order."""
        for h in range(len(self._channels)):
            self._send(h, op, args)
        out: list = [None] * self._partitions
        for h, members in enumerate(self._members):
            for p, payload in zip(members, self._recv(h) or ()):
                out[p] = payload
        return out

    def _require_count(self, op: str, got: int) -> None:
        """Refuse partition-indexed payloads of the wrong length: a
        short list must fail loudly, not leave trailing partitions
        stale."""
        if got != self._partitions:
            raise ValueError(
                f"{self.name} executor {op}() got {got} partition "
                f"entries, expected {self._partitions} -- was this state "
                "captured under a different partitioning?"
            )

    def _scatter(self, op: str, per_partition: Sequence) -> None:
        """Send each channel its partitions' payloads (local order) and
        await the acks."""
        self._require_count(op, len(per_partition))
        for h, members in enumerate(self._members):
            self._send(h, op, [per_partition[p] for p in members])
        for h in range(len(self._channels)):
            self._recv(h)

    # ------------------------------------------------------------------
    # The command set
    # ------------------------------------------------------------------
    def poke(self, index: int, name: str, value) -> None:
        h, local = self._home[index]
        self._call(h, "poke", [local, name, value])

    def peek(self, index: int, name: str) -> List[int]:
        h, local = self._home[index]
        return self._call(h, "peek", [local, name])

    def collect(self) -> List[ExportRows]:
        """Every partition's current export rows, without stepping."""
        rows = self._gather("collect")
        if self._planes is not None:
            self._jumped = False
            return self._planes.report(full=True)
        return rows

    def step_collect(self, clock: Optional[str] = None) -> List[ExportRows]:
        """Advance every partition one edge and gather export rows."""
        stepped = self._gather("step", clock)
        seconds = [duration for _, duration in stepped]
        self.step_total_seconds += sum(seconds)
        self.step_max_seconds += max(seconds, default=0.0)
        if self._planes is not None:
            full, self._jumped = self._jumped, False
            return self._planes.report(full)
        return [rows for rows, _ in stepped]

    def apply_sync(self, updates: Sequence[ExportRows]) -> None:
        """Refresh replica inputs: ``updates[i]`` goes to partition i.
        Rows a worker already applied itself are dropped; rows a reader
        can adopt from the writer's plane travel as names only."""
        self._require_count("apply_sync", len(updates))
        frames: List[list] = [[] for _ in self._channels]
        for p, update in enumerate(updates):
            applied = self._self_applied[p]
            known = self._planes.imports[p] if self._planes is not None else ()
            rows, adopt = {}, []
            for name, row in update.items():
                if name in known:
                    adopt.append(name)
                elif name not in applied:
                    rows[name] = row
            if rows or adopt:
                h, local = self._home[p]
                frames[h].append([local, rows, adopt])
        pending = [h for h, frame in enumerate(frames) if frame]
        for h in pending:
            self._send(h, "sync", frames[h])
        for h in pending:
            self._recv(h)

    def reset(self) -> None:
        self._jumped = True
        self._gather("reset")

    def snapshot(self) -> List[object]:
        """Per partition ``[slot rows, cycle]`` (portable ints)."""
        return self._gather("snapshot")

    def restore(self, states: Sequence[object]) -> None:
        self._jumped = True
        self._scatter("restore", states)

    def export_lane(self, lane: int) -> List[List[int]]:
        """One lane's per-partition slot-value columns (portable ints)."""
        return self._gather("export_lane", lane)

    def import_lane(self, lane: int, states: Sequence[Sequence[int]]) -> None:
        """Load one lane into every partition from ``export_lane`` output."""
        self._jumped = True
        self._scatter("import_lane", [[lane, state] for state in states])

    def activity_stats(self) -> List[Optional[ActivityStats]]:
        """Per-partition :class:`~repro.kernels.activity.ActivityStats`
        (``None`` entries for plain kernels)."""
        return [
            None if doc is None else ActivityStats.from_dict(doc)
            for doc in self._gather("activity_stats")
        ]

    def describe(self) -> List[str]:
        """Per-partition ``backend/style`` strings (reporting only)."""
        return list(self._styles)

    def close(self) -> None:
        """Close every session, reap every spawned worker (ack wait,
        join, terminate, kill), release the planes."""
        sessions = len(self._channels)
        for channel in self._channels:
            try:
                channel.send(["close", None])
                channel.recv(self.close_timeout)
            except PEER_GONE + (ValueError,):
                pass
            try:
                channel.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._channels = []
        for index, proc in enumerate(self._procs):
            # A worker that never got a session has no ack to wait for.
            proc.join(timeout=self.close_timeout if index < sessions else 0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=1)
        self._procs = []
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._planes is not None:
            self._planes.release()
            self._planes = None
