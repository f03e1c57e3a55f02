"""The shard worker: N partition simulators behind one command table.

:class:`WorkerCore` owns the partition
:class:`~repro.batch.BatchSimulator` instances of one coordinator
session and this worker's share of the static exchange schedule: each
partition's export names, the subset of them the coordinator must see
(``report``), the route legs whose writer and readers are both hosted
here (applied worker-side) and, optionally, the partitions'
shared-memory lane planes.  :meth:`WorkerCore.handle` is the whole
command set; in-process channels call it directly and :func:`serve`
drives it from a pipe or a socket.

Commands are ``[op, args]`` and replies ``["ok", result]`` or
``["err", traceback]``, all plain JSON values (:mod:`repro.wire`).
Nothing a peer sends is unpickled, executed or used as a filesystem
path.
"""

from __future__ import annotations

import re
import time
import traceback
from typing import List, Optional

from .. import wire
from ..batch.simulator import BatchSimulator
from ..graph.dfg import DataflowGraph, graph_from_doc
from .planes import ExportRows, WorkerPlanes

#: What a channel raises when its peer is gone (or too slow).
PEER_GONE = (EOFError, OSError)

_DIGEST = re.compile(r"[0-9a-f]{64}")


def _resolve_graph(ref: dict):
    """A setup graph reference: ``{"doc": ...}`` carries the partition
    graph inline, ``{"cache": digest}`` names a ``pgraph`` entry of this
    worker's own artifact cache (``--cache-dir``, ``REPRO_CACHE_DIR`` or
    what a forked worker inherited).  A miss raises the diagnostic the
    coordinator's inline retry keys on.  An in-process channel passes
    the live object as ``{"graph": g}`` (no frame can carry one)."""
    if isinstance(ref.get("graph"), DataflowGraph):
        return ref["graph"]
    if "doc" in ref:
        return graph_from_doc(ref["doc"])
    digest = ref["cache"]
    if not (isinstance(digest, str) and _DIGEST.fullmatch(digest)):
        raise ValueError("a pgraph digest is 64 lowercase hex characters")
    from ..serve.artifacts import get_cache

    cache = get_cache()
    graph = cache.get("pgraph", digest) if cache is not None else None
    if graph is None:
        where = cache.root if cache is not None else "this worker (no cache)"
        raise RuntimeError(
            f"pgraph cache entry {digest[:12]} missing from {where}"
        )
    return graph


def mp_context():
    """How worker processes start: fork (no re-import, cheap COW of the
    compiled frontend), or spawn where fork does not exist."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class WorkerCore:
    """The partitions of one coordinator session (see module docs).

    ``shm`` says whether a ``setup`` may attach shared-memory planes: a
    same-host pipe worker may, a socket worker must not open segments a
    remote peer names.
    """

    def __init__(self, shm: bool = False) -> None:
        self._shm = shm
        self._clear()

    def _clear(self) -> None:
        self.sims: List[BatchSimulator] = []
        self._exports: List[List[str]] = []
        self._report: List[List[str]] = []
        self._planes: List[Optional[WorkerPlanes]] = []
        #: Host-local route legs: (writer_local, name, reader_locals).
        self._routes: list = []

    def handle(self, op, args=None):
        """Run one command; raises on unknown ops and worker-side errors."""
        method = isinstance(op, str) and getattr(self, f"op_{op}", None)
        if not method:
            raise ValueError(f"unknown shard worker command {op!r}")
        return method(args)

    def close(self) -> None:
        for planes in self._planes:
            if planes is not None:
                planes.close()
        self._clear()

    def op_close(self, _args) -> None:
        """The last command of a session (:func:`serve` stops after it)."""
        self.close()

    def op_setup(self, spec) -> List[str]:
        """Build the partition simulators; returns their
        ``backend/style`` strings.  A failed setup leaves the core empty,
        so the coordinator may retry on the same channel."""
        self.close()
        lanes = int(spec["lanes"])
        try:
            for part in spec["partitions"]:
                # Partition graphs come out of partition_graph already
                # optimised; re-optimising could eliminate the replica
                # inputs the sync needs.
                sim = BatchSimulator(
                    _resolve_graph(part["graph"]), lanes=lanes,
                    kernel=spec["kernel"], backend=spec["backend"],
                    optimize_graph=False,
                )
                exports = [str(name) for name in part["exports"]]
                planes = None
                if part.get("planes") is not None:
                    if not self._shm:
                        raise ValueError(
                            "this worker does not attach shared-memory planes"
                        )
                    planes = WorkerPlanes(part["planes"], lanes, sim, exports)
                self.sims.append(sim)
                self._exports.append(exports)
                self._report.append([str(name) for name in part["report"]])
                self._planes.append(planes)
            self._routes = [
                (int(writer), str(name), [int(r) for r in readers])
                for writer, name, readers in spec["routes"]
            ]
        except Exception:
            self.close()
            raise
        return [f"{sim.backend}/{sim.kernel.style}" for sim in self.sims]

    def _export(self, local: int) -> ExportRows:
        """Partition ``local``'s export rows -- published into its plane
        when it has one, else as int lists.  Exported names are register
        state slots: valid post-commit without settling, so the exchange
        never pays an extra comb pass."""
        sim = self.sims[local]
        if self._planes[local] is not None:
            self._planes[local].publish(sim)
            return {}
        return {name: sim.peek_row(name, settle=False)
                for name in self._exports[local]}

    def _exchange(self, rows: List[ExportRows]) -> List[ExportRows]:
        """Apply the host-local route legs, then keep what others read."""
        for writer, name, readers in self._routes:
            for reader in readers:
                self.sims[reader].poke_row(name, rows[writer][name])
        return [
            {name: part[name] for name in report}
            for part, report in zip(rows, self._report)
        ]

    def op_step(self, clock) -> list:
        """Advance every partition one edge; per partition the reported
        export rows and the measured kernel seconds."""
        rows, seconds = [], []
        for local, sim in enumerate(self.sims):
            start = time.perf_counter()
            if clock is None:
                sim.step()
            elif clock in sim.clock_domains:  # else: sits this edge out
                sim.step_domain(clock)
            rows.append(self._export(local))
            seconds.append(time.perf_counter() - start)
        return [list(pair) for pair in zip(self._exchange(rows), seconds)]

    def op_collect(self, _args) -> List[ExportRows]:
        return self._exchange([self._export(i) for i in range(len(self.sims))])

    def op_sync(self, updates) -> None:
        """``[local, rows, adopt]`` per partition: poke ``rows``, adopt
        the ``adopt`` names from the writers' planes."""
        for local, rows, adopt in updates:
            sim = self.sims[local]
            for name, row in rows.items():
                sim.poke_row(name, row)
            if adopt:
                self._planes[local].adopt(sim, adopt)

    def op_poke(self, args) -> None:
        local, name, value = args
        self.sims[local].poke(name, value)

    def op_peek(self, args) -> List[int]:
        local, name = args
        return self.sims[local].peek(name)

    def op_reset(self, _args) -> None:
        for sim in self.sims:
            sim.reset()

    def op_snapshot(self, _args) -> list:
        return [list(sim.export_state()) for sim in self.sims]

    def _each(self, states):
        if len(states) != len(self.sims):
            raise ValueError(
                f"got {len(states)} partition states for {len(self.sims)}"
            )
        return zip(self.sims, states)

    def op_restore(self, states) -> None:
        for sim, (rows, cycle) in self._each(states):
            sim.import_state(rows, cycle)

    def op_export_lane(self, lane) -> List[List[int]]:
        return [sim.export_lane(lane) for sim in self.sims]

    def op_import_lane(self, states) -> None:
        for sim, (lane, state) in self._each(states):
            sim.import_lane(lane, state)

    def op_activity_stats(self, _args) -> list:
        stats = [sim.activity_stats for sim in self.sims]
        return [s and s.as_dict() for s in stats]


def serve(channel, core: WorkerCore) -> None:
    """One coordinator session: answer commands until ``close``, until
    the peer goes away, or until it stops speaking frames.  A malformed
    frame gets an ``err`` reply where the channel still allows one and
    ends the session -- never the process hosting it."""
    def send(status: str, payload) -> bool:
        try:
            channel.send([status, payload])
        except PEER_GONE:
            return False
        return True

    try:
        while True:
            try:
                message = channel.recv()
            except PEER_GONE:
                return
            except wire.FrameError as exc:
                send("err", f"malformed frame: {exc}")
                return
            if not (isinstance(message, list) and len(message) == 2):
                send("err", "malformed frame: expected [op, args]")
                return
            op, args = message
            try:
                alive = send("ok", core.handle(op, args))
            except Exception:  # worker-side failure, or an unencodable result
                alive = send("err", traceback.format_exc())
            if not alive or op == "close":
                return
    finally:
        core.close()
