"""The sharded batched simulator: B lanes × P partitions per cycle.

:class:`ShardedBatchSimulator` composes the two scaling axes this
reproduction has built so far: RepCut-style partitioning
(:mod:`repro.repcut`) decouples the design into P independent
per-cycle kernels, and lane batching (:mod:`repro.batch`) advances B
stimulus seeds through each kernel at once.  Every cycle is one
bulk-synchronous round: P workers each run their partition's batched
kernel, then the Register Update Map synchronisation -- Cascade 2's
``LI[c+1] = LI[c,I] . RUM`` Einsum -- exchanges the updated registers'
*lane vectors* between partitions, one row per register instead of one
scalar per (register, lane).

The surface stays scalar-compatible (``poke`` / ``peek`` / ``step`` /
``step_domain`` / ``reset`` / ``snapshot`` / ``restore``), with ``peek``
returning B-lane lists exactly like :class:`~repro.batch.BatchSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..firrtl.primops import mask
from ..graph.dfg import DataflowGraph
from ..kernels.config import KernelConfig
from ..sim.simulator import DesignLike, compile_graph
from ..repcut.partition import (
    PartitionResult,
    missing_signal_error,
    partition_graph,
)
from ..repcut.rum import RegisterUpdateMap, build_rum
from .executors import ChannelExecutor
from .planes import ExportRows

LaneValues = Union[int, Sequence[int]]


@dataclass
class ShardSnapshot:
    """A checkpoint of all P partitions plus the exchange history.

    Partition states are portable ``[slot rows, cycle]`` int planes; a
    snapshot restores onto a simulator of the same executor, cut and
    lane count.
    """

    partition_states: List[object]
    cycle: int
    last_synced: Dict[str, Tuple[int, ...]]
    executor: str
    lanes: int
    #: The cut itself (per-partition owned registers): two simulators of
    #: the same design can partition it differently (greedy vs refined,
    #: different ``max_replication``), and partition states are only
    #: meaningful on the cut that produced them.
    cut: Tuple[Tuple[str, ...], ...] = ()
    #: Host-side poked input rows at snapshot time (the ``poke_lane``
    #: read-modify-write base); restored alongside the partition states.
    poked_rows: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


@dataclass
class ShardLaneState:
    """One lane's portable state: per-partition slot values (plain ints,
    backend-agnostic) plus the lane's poked-input values.  Produced by
    :meth:`ShardedBatchSimulator.export_lane`."""

    partition_values: List[List[int]]
    cut: Tuple[Tuple[str, ...], ...] = ()
    poked: Dict[str, int] = field(default_factory=dict)


class ShardedBatchSimulator:
    """B-lane batched simulation sharded over P RepCut partitions.

    Parameters
    ----------
    design:
        FIRRTL text, a :class:`FlatDesign`, or a (pre-optimised)
        :class:`DataflowGraph` -- anything
        :func:`repro.sim.compile_graph` accepts.
    lanes:
        Number of independent stimulus lanes (B).
    num_partitions:
        RepCut partition count (P); one worker per partition.  Empty
        partitions (no owned register, no output) are pruned, so this is
        an upper bound and :attr:`num_partitions` reports the effective
        count.
    partitioner:
        Partitioning strategy: ``"greedy"`` (balanced cone assignment)
        or ``"refined"`` (greedy seed + replication-capped KL/FM
        refinement, :mod:`repro.repcut.refine`) -- on heavily shared
        designs the refined cut does ~P× less total work.
    max_replication:
        Replication cap for the refined partitioner, as a fraction of
        the design's ops (``None`` = uncapped).
    preserve_signals:
        Keep named intermediate signals observable when compiling from
        source (a pre-compiled :class:`DataflowGraph` is used as-is).
    kernel:
        Per-partition kernel configuration (as
        :class:`~repro.batch.BatchSimulator`).
    backend:
        Value-plane storage request, resolved *per partition* -- sharding
        a wide design leaves most partitions on the single-row u64 fast
        path with only the wide partitions on split-limb u64xN planes;
        the RUM exchange itself is storage-agnostic (lane rows cross as
        plain ints), so mixed-backend partitions compose freely.
    executor:
        ``"serial"`` (deterministic reference), ``"thread"``,
        ``"process"`` (one worker process per partition) or ``"socket"``
        (partitions on ``shard-worker`` hosts over TCP); see
        :mod:`repro.shard.executors`.
    hosts:
        Socket executor only: ``"host[:port]"`` strings (or
        ``(host, port)`` pairs) of running ``shard-worker`` endpoints,
        assigned partitions round-robin.  ``None`` auto-spawns loopback
        workers owned by this simulator.
    shm_planes:
        Process executor only: ``None`` (default) uses shared-memory
        lane planes whenever every partition fits the u64 plane,
        ``True`` requires them (raising when ineligible), ``False``
        forces the JSON-over-pipe exchange.  The live choice is reported
        by :attr:`transport`.
    """

    def __init__(
        self,
        design: Union[DesignLike, DataflowGraph],
        lanes: int = 8,
        num_partitions: int = 2,
        kernel: Union[str, KernelConfig] = "PSU",
        backend: str = "auto",
        executor: str = "serial",
        partitioner: str = "greedy",
        max_replication: Optional[float] = None,
        preserve_signals: bool = False,
        hosts: Optional[Sequence] = None,
        shm_planes: Optional[bool] = None,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        graph = compile_graph(design, preserve_signals=preserve_signals)
        self.lanes = lanes
        self.result: PartitionResult = partition_graph(
            graph, num_partitions, strategy=partitioner,
            max_replication=max_replication,
        )
        self._design_signals = set(graph.signal_map)
        if self.result.cache_digest:
            # The cut came through the artifact cache; the derived RUM is
            # keyed by the same digest, so a warm process skips its
            # reader/writer sweep too.
            from ..serve.artifacts import cache_through

            self.rum: RegisterUpdateMap = cache_through(
                "rum", self.result.cache_digest,
                lambda: build_rum(self.result),
            )
        else:
            self.rum = build_rum(self.result)
        self._routes = self.rum.routes()
        # Empty partitions were pruned, so worker count follows the
        # *effective* partition list, not the requested P.
        self.executor = ChannelExecutor(
            executor, self.result.partitions, lanes, kernel, backend,
            routes=self._routes, hosts=hosts, shm_planes=shm_planes,
        )
        self._closed = False

        # Input fan-out and signal homes, as the scalar RepCut simulator.
        self._known_inputs = set(graph.inputs)
        self._input_widths = {
            name: graph.nodes[nid].width for name, nid in graph.inputs.items()
        }
        # Masked poked rows, host-side: lane-targeted pokes read-modify-
        # write against this record (the executor protocol is row-wise).
        self._poked_rows: Dict[str, Tuple[int, ...]] = {}
        self._input_sinks: Dict[str, List[int]] = {}
        for index, partition in enumerate(self.result.partitions):
            for name in partition.graph.inputs:
                if name in partition.external_registers:
                    continue
                self._input_sinks.setdefault(name, []).append(index)
        self._signal_home: Dict[str, int] = {}
        for index, partition in enumerate(self.result.partitions):
            for name in partition.graph.signal_map:
                self._signal_home.setdefault(name, index)
        for name, home in self.rum.writer.items():
            self._signal_home[name] = home
        self._signal_widths = {
            name: graph.nodes[nid].width
            for name, nid in graph.signal_map.items()
            if name in self._signal_home
        }
        self._clock_domains = sorted(
            {clock for p in self.result.partitions for clock in p.clock_domains}
        )

        self.cycle = 0
        self._last_synced: Dict[str, Tuple[int, ...]] = {}
        self.sync_sent = 0
        self.sync_suppressed = 0
        self._prime()

    def _prime(self) -> None:
        """Refresh every replica unconditionally.  Partitions step
        *before* a cycle's exchange, so when register state appears
        without one (construction, reset, an imported lane) the
        differential history is dropped and all rows are exchanged now."""
        self._last_synced.clear()
        self._exchange(self.executor.collect())

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def poke(self, name: str, value: LaneValues) -> None:
        """Drive an input in every partition reading it: a scalar
        broadcasts across lanes, a sequence is per-lane."""
        sinks = self._input_sinks.get(name)
        if not sinks and name not in self._known_inputs:
            raise KeyError(f"{name!r} is not an input of any partition")
        width = self._input_widths[name]
        if isinstance(value, int):
            row = (mask(value, width),) * self.lanes
        else:
            row = tuple(mask(int(v), width) for v in value)
            if len(row) != self.lanes:
                raise ValueError(
                    f"poke({name!r}) got {len(row)} values for "
                    f"{self.lanes} lanes"
                )
        self._poked_rows[name] = row
        # Sinks get the masked, length-checked row (not the raw caller
        # value): a one-shot iterable was consumed building it, and the
        # partitions skip redundant re-masking work.
        lane_values = list(row)
        for index in sinks or ():
            self.executor.poke(index, name, lane_values)

    def poke_lane(self, name: str, lane: int, value: int) -> None:
        """Drive an input in a single lane; the other lanes keep their
        most recently poked values (zero if never poked)."""
        if name not in self._known_inputs:
            raise KeyError(f"{name!r} is not an input of any partition")
        if not 0 <= lane < self.lanes:
            raise IndexError(
                f"poke_lane({name!r}): lane {lane} out of range for "
                f"{self.lanes} lanes"
            )
        row = list(self._poked_rows.get(name, (0,) * self.lanes))
        row[lane] = mask(int(value), self._input_widths[name])
        self.poke(name, row)

    def peek(self, name: str) -> List[int]:
        """All B lanes of a signal, from its home partition."""
        home = self._signal_home.get(name)
        if home is None:
            raise missing_signal_error(
                name, self._design_signals, self.result.partitions
            )
        return self.executor.peek(home, name)

    def peek_lane(self, name: str, lane: int) -> int:
        return self.peek(name)[lane]

    def step(self, cycles: int = 1) -> None:
        """Advance all clock domains of all lanes by ``cycles`` edges:
        P parallel partition steps, then one RUM exchange per edge."""
        for _ in range(cycles):
            self._exchange(self.executor.step_collect())
            self.cycle += 1

    def step_domain(self, clock: str) -> None:
        """Advance a single clock domain by one edge (Section 6.2).

        Partitions owning no register in ``clock`` sit the edge out; the
        differential exchange then suppresses their unchanged exports.
        """
        if clock not in self._clock_domains:
            raise KeyError(
                f"unknown clock domain {clock!r}; domains: "
                f"{self._clock_domains}"
            )
        self._exchange(self.executor.step_collect(clock))
        self.cycle += 1

    def run(self, cycles: int) -> None:
        """Alias for :meth:`step`, for testbench readability."""
        self.step(cycles)

    def reset(self) -> None:
        """Reset every partition (poked inputs survive, as the scalar
        simulators) and refresh all replicas unconditionally."""
        self.executor.reset()
        self._prime()
        self.cycle = 0

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> ShardSnapshot:
        """Checkpoint all partitions plus the exchange history."""
        return ShardSnapshot(
            partition_states=self.executor.snapshot(),
            cycle=self.cycle,
            last_synced=dict(self._last_synced),
            executor=self.executor.name,
            lanes=self.lanes,
            cut=self._cut(),
            poked_rows=dict(self._poked_rows),
        )

    def _cut(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(
            tuple(p.owned_registers) for p in self.result.partitions
        )

    def restore(self, snapshot: ShardSnapshot) -> None:
        """Return to a :meth:`snapshot` checkpoint (same executor,
        partitioning, and lane count)."""
        if snapshot.executor != self.executor.name:
            raise ValueError(
                f"snapshot was taken under the {snapshot.executor!r} "
                f"executor, this simulator runs {self.executor.name!r}"
            )
        if snapshot.lanes != self.lanes:
            raise ValueError(
                f"snapshot has {snapshot.lanes} lanes, simulator has "
                f"{self.lanes}"
            )
        if snapshot.cut and snapshot.cut != self._cut():
            raise ValueError(
                "snapshot was taken under a different partitioning (the "
                "register->partition cut differs, e.g. another partitioner= "
                "strategy or max_replication); partition states are only "
                "restorable onto the cut that produced them"
            )
        self.executor.restore(snapshot.partition_states)
        self.cycle = snapshot.cycle
        self._last_synced = dict(snapshot.last_synced)
        self._poked_rows = dict(snapshot.poked_rows)

    # ------------------------------------------------------------------
    # Per-lane state transfer (session checkout / preemption)
    # ------------------------------------------------------------------
    def export_lane(self, lane: int) -> ShardLaneState:
        """Portable state of a single lane: per-partition value planes
        plus that lane's poked-input values.

        Unlike :meth:`snapshot` (whole-simulator, executor-native), lane
        states are plain Python ints and move between simulators of the
        same design with different executors, backends, or kernels -- the
        unit of session preemption and migration in :mod:`repro.serve`.
        """
        if not 0 <= lane < self.lanes:
            raise IndexError(
                f"export_lane: lane {lane} out of range for "
                f"{self.lanes} lanes"
            )
        return ShardLaneState(
            partition_values=self.executor.export_lane(lane),
            cut=self._cut(),
            poked={row_name: row[lane]
                   for row_name, row in self._poked_rows.items()},
        )

    def import_lane(self, lane: int, state: ShardLaneState) -> None:
        """Load an :meth:`export_lane` state into one lane (the other
        lanes are untouched).  Requires the same partition cut."""
        if not 0 <= lane < self.lanes:
            raise IndexError(
                f"import_lane: lane {lane} out of range for "
                f"{self.lanes} lanes"
            )
        if state.cut and state.cut != self._cut():
            raise ValueError(
                "lane state was exported under a different partitioning "
                "(the register->partition cut differs); re-export from a "
                "simulator with the same cut"
            )
        self.executor.import_lane(lane, state.partition_values)
        for name, value in state.poked.items():
            self.poke_lane(name, lane, value)
        self._prime()

    # ------------------------------------------------------------------
    # The batched RUM exchange
    # ------------------------------------------------------------------
    def _exchange(self, exports: List[ExportRows]) -> None:
        """Propagate updated register lane-rows via the RUM.

        Differential exchange (Box 1), lane-vectorised: a register's row
        is sent to its readers only when *any* lane changed.  The first
        exchange (no history) sends everything.
        """
        merged: Dict[str, List[int]] = {}
        for rows in exports:
            merged.update(rows)
        updates: List[ExportRows] = [
            {} for _ in range(len(self.result.partitions))
        ]
        for name, _writer, readers in self._routes:
            if name not in merged:
                # The executor handled this row natively.  A name with
                # sync history was suppressed transport-side (the shm
                # change mask drops quiescent rows before they reach the
                # coordinator); one without history never travels here
                # at all (host-local socket routes).
                if name in self._last_synced:
                    self.sync_suppressed += len(readers)
                continue
            row = tuple(merged[name])
            if self._last_synced.get(name) == row:
                self.sync_suppressed += len(readers)
                continue
            self._last_synced[name] = row
            self.sync_sent += len(readers)
            lane_values = list(row)
            for reader in readers:
                updates[reader][name] = lane_values
        self.executor.apply_sync(updates)

    # ------------------------------------------------------------------
    # Introspection / stats
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.result.partitions)

    @property
    def clock_domains(self) -> List[str]:
        return list(self._clock_domains)

    @property
    def inputs(self) -> List[str]:
        """Names of the design's pokeable inputs."""
        return sorted(self._known_inputs)

    @property
    def signals(self) -> List[str]:
        return sorted(self._signal_widths)

    @property
    def unpoked_inputs(self) -> set:
        """Inputs never driven since construction; dumped as ``x`` by
        :class:`~repro.sim.VcdWriter` before the first edge."""
        return self._known_inputs - set(self._poked_rows)

    @property
    def signal_widths(self) -> Dict[str, int]:
        """``{signal: width}`` of every peekable signal (waveforms)."""
        return dict(self._signal_widths)

    @property
    def transport(self) -> str:
        """How lane rows move during the exchange: ``"local"``,
        ``"pipe"``, ``"shm"``, or ``"socket"``."""
        return self.executor.transport

    @property
    def replication_overhead(self) -> float:
        """Fraction of extra ops the partitioning replicated."""
        return self.result.replication_overhead

    def sync_traffic_per_cycle(self) -> int:
        """Register *rows* exchanged per cycle without differential
        exchange (each row carries B lane values)."""
        return self.rum.total_transfers_per_cycle

    @property
    def differential_savings(self) -> float:
        """Fraction of synchronisation traffic suppressed so far."""
        total = self.sync_sent + self.sync_suppressed
        return self.sync_suppressed / total if total else 0.0

    @property
    def activity_stats(self):
        """Aggregate :class:`~repro.kernels.activity.ActivityStats` over
        all partitions, or ``None`` when partitions run plain kernels.

        With ``kernel="activity"`` each partition gets per-partition
        settle-skipping for free: a partition's replica inputs *are* its
        leaves, and the differential RUM exchange leaves unchanged rows
        unpoked, so a quiescent partition's walk full-skips -- the
        exchange history feeds the activity fiber.  The merged counters
        make that skipping observable per shard; ``cycles`` reports the
        max over partitions (they advance in lockstep), the work counters
        sum.
        """
        from ..kernels.activity import merge_stats

        parts = self.executor.activity_stats()
        if all(part is None for part in parts):
            return None
        return merge_stats(parts)

    def describe_partitions(self) -> List[str]:
        """Per-partition ``backend/style`` strings."""
        return self.executor.describe()

    @property
    def step_total_seconds(self) -> float:
        """Measured kernel time summed over all partitions and cycles."""
        return self.executor.step_total_seconds

    @property
    def step_max_seconds(self) -> float:
        """Measured barrier critical path: sum over cycles of the slowest
        partition's kernel time (the per-cycle cost on >= P free cores)."""
        return self.executor.step_max_seconds

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down worker threads/processes (idempotent)."""
        if not self._closed:
            self._closed = True
            self.executor.close()

    def __enter__(self) -> "ShardedBatchSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShardedBatchSimulator(lanes={self.lanes}, "
            f"partitions={self.num_partitions}, "
            f"executor={self.executor.name}, cycle={self.cycle})"
        )
