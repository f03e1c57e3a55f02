"""Differential verification harness: the full simulator matrix, one seed.

GSIM and Manticore validate aggressive parallel schedules by trace-level
differential checking against a reference simulator; this module is that
idea for the reproduction's three kernel families.  For a registry
design and a stimulus seed it builds the whole engine matrix --

* ``scalar`` -- B independent scalar :class:`~repro.sim.Simulator` runs
  behind the batched surface (:class:`ScalarFleet`), the reference;
* ``batch-*`` -- :class:`~repro.batch.BatchSimulator` on the design's
  value plane (the NumPy plane -- ``batch-u64`` for a narrow design,
  ``batch-u64xN`` for a wide one, the same walk either way -- or the
  pure-Python fallback), plus an SU-codegen arm and -- when the
  design fits u64 planes and a C toolchain is present -- the compiled
  C batch backend (``batch-compiled``/``shard-compiled``);
* ``shard-*`` -- :class:`~repro.shard.ShardedBatchSimulator` across
  executors (serial, optionally process) and partitioner strategies
  (greedy, refined);
* ``batch-activity`` / ``shard-activity`` -- the sparse engines: the
  fiber-driven activity walk with lane compaction, and its sharded
  settle-skipping counterpart, cross-checked on dense stimulus

-- runs them in lockstep on per-lane seeded stimulus
(:func:`repro.workloads.batched_workload_for`), and asserts bit-exact
observed traces via :func:`repro.sim.first_divergence`.  Every result
carries a copy-paste repro command, so a failing fuzz seed reproduces
with one CLI line::

    PYTHONPATH=src python -m repro.experiments differential \\
        --design rocket-1 --seed 7
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..batch import BatchSimulator, HAS_NUMPY
from ..batch.backend import BACKENDS, supports_u64
from ..designs.registry import compile_named_design, compiled_graph
from ..lower.cbackend import has_toolchain
from ..shard import ShardedBatchSimulator
from ..sim import FleetDiff, Simulator, first_divergence, run_lockstep
from ..workloads.stimulus import batched_workload_for

DEFAULT_LANES = 2
DEFAULT_CYCLES = 16


class ScalarFleet:
    """B independent scalar simulators behind the batched surface.

    The differential harness's reference engine: ``poke`` scatters a lane
    vector across B :class:`~repro.sim.Simulator` instances, ``peek``
    gathers their values, so lockstep runs and trace comparison treat the
    scalar reference exactly like any rank-1 engine -- and every lane of
    every batched engine is checked against a genuinely independent
    scalar simulation of the same seed.
    """

    def __init__(self, design, lanes: int, kernel="PSU") -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.lanes = lanes
        self.sims = [Simulator(design, kernel=kernel) for _ in range(lanes)]

    @property
    def cycle(self) -> int:
        return self.sims[0].cycle

    def poke(self, name: str, value) -> None:
        if isinstance(value, int):
            for sim in self.sims:
                sim.poke(name, value)
            return
        values = list(value)
        if len(values) != self.lanes:
            raise ValueError(
                f"poke({name!r}) got {len(values)} values for "
                f"{self.lanes} lanes"
            )
        for sim, lane_value in zip(self.sims, values):
            sim.poke(name, lane_value)

    def _lane(self, lane: int):
        # Match the batched engines: negative or over-range lanes raise
        # instead of wrapping, so the reference never accepts input the
        # engines under test reject.
        if not 0 <= lane < self.lanes:
            raise IndexError(
                f"lane {lane} out of range for {self.lanes} lanes"
            )
        return self.sims[lane]

    def poke_lane(self, name: str, lane: int, value: int) -> None:
        self._lane(lane).poke(name, value)

    def peek(self, name: str) -> List[int]:
        return [sim.peek(name) for sim in self.sims]

    def peek_lane(self, name: str, lane: int) -> int:
        return self._lane(lane).peek(name)

    def step(self, cycles: int = 1) -> None:
        for sim in self.sims:
            sim.step(cycles)

    def step_domain(self, clock: str) -> None:
        for sim in self.sims:
            sim.step_domain(clock)

    def reset(self) -> None:
        for sim in self.sims:
            sim.reset()

    def run(self, cycles: int) -> None:
        self.step(cycles)

    @property
    def signals(self) -> List[str]:
        return self.sims[0].signals

    @property
    def signal_widths(self) -> Dict[str, int]:
        return self.sims[0].signal_widths

    @property
    def unpoked_inputs(self):
        # Unpoked iff no lane drove it, matching the batched engines'
        # any-poke-defines-the-input convention.
        return set.intersection(*(sim.unpoked_inputs for sim in self.sims))

    def __repr__(self) -> str:
        return f"ScalarFleet(lanes={self.lanes})"


@dataclass(frozen=True)
class EngineSpec:
    """One engine of the differential matrix, constructible on demand."""

    name: str
    kind: str  # "scalar" | "batch" | "shard"
    options: tuple = ()  # sorted (key, value) pairs, hashable

    def option_dict(self) -> Dict[str, object]:
        return dict(self.options)


def _spec(name: str, kind: str, **options) -> EngineSpec:
    return EngineSpec(name, kind, tuple(sorted(options.items())))


def _named_engines(kernel: str) -> Dict[str, tuple]:
    """``name -> (kind, options)`` of every engine whose name is not
    simply its options spelled out (those are ``batch-<backend>`` and
    ``shard-<executor>-<partitioner>``, see :func:`spec_from_name`)."""
    serial = {"executor": "serial", "partitioner": "greedy"}
    return {
        "scalar": ("scalar", {"kernel": kernel}),
        "batch-su": ("batch", {"backend": "auto", "kernel": "SU"}),
        "batch-activity": (
            "batch", {"backend": "auto", "kernel": f"activity:{kernel}"}),
        "batch-compiled": ("batch", {"backend": "u64", "kernel": "compiled"}),
        "shard-activity": ("shard", {**serial, "kernel": f"activity:{kernel}"}),
        "shard-compiled": ("shard", {**serial, "kernel": "compiled"}),
        "shard-socket": ("shard", {
            "executor": "socket", "partitioner": "greedy", "kernel": kernel}),
        "shard-shm": ("shard", {
            "executor": "process", "partitioner": "greedy", "shm_planes": True,
            "kernel": kernel}),
    }


def spec_from_name(name: str, kernel: str = "PSU") -> EngineSpec:
    """Build an :class:`EngineSpec` from its systematic name (``scalar``,
    ``batch-<backend>``, ``batch-su``, ``shard-<executor>-<partitioner>``,
    ...) -- how :func:`engine_matrix` builds its specs, and what lets a
    repro command round-trip a custom engine list.
    """
    named = _named_engines(kernel).get(name)
    if named is not None:
        kind, options = named
        return _spec(name, kind, **options)
    family, _, rest = name.partition("-")
    if family == "batch" and rest in (*BACKENDS, "auto"):
        return _spec(name, "batch", backend=rest, kernel=kernel)
    if family == "shard" and rest.count("-") == 1:
        executor, partitioner = rest.split("-")
        return _spec(name, "shard", executor=executor,
                     partitioner=partitioner, kernel=kernel)
    raise KeyError(
        f"unknown engine name {name!r}; expected scalar, batch-<backend>, "
        "batch-su, batch-activity, batch-compiled, shard-activity, "
        "shard-compiled, shard-socket, shard-shm, or "
        "shard-<executor>-<partitioner>"
    )


def engine_matrix(
    design: str,
    include_process: bool = False,
    full: bool = False,
    kernel: str = "PSU",
) -> List[EngineSpec]:
    """The engine matrix valid for ``design`` on this host.

    Always includes the scalar reference, the batch walk on the design's
    plane, and the serial sharded engine under both partitioner
    strategies.  ``include_process`` adds the process-executor arm (one
    OS process per partition -- real isolation, slower to spawn);
    ``full`` widens the process arm to both partitioner strategies.
    """
    names = ["scalar"]
    narrow = HAS_NUMPY and supports_u64(compile_named_design(design))
    if HAS_NUMPY:
        # One NumPy plane, one walk: a narrow design's plane is the
        # one-limb case, so a second backend arm would re-run the same code.
        names += ["batch-u64" if narrow else "batch-u64xN", "batch-su"]
        # The compiled C batch backend rides the matrix wherever it can
        # actually compile: u64-plane designs on hosts with a toolchain.
        # (Elsewhere `kernel="compiled"` falls back to the NumPy walk,
        # which the arm above already covers.)
        if narrow and has_toolchain():
            names += ["batch-compiled", "shard-compiled"]
    else:
        names.append("batch-python")
    # Sparse engines: the fiber-driven activity walk must stay bit-exact
    # with the dense engines on *arbitrary* stimulus, not just the
    # low-activity streams it is built for -- so it rides in the default
    # matrix and every fuzz seed cross-checks its skip logic.
    names += ["batch-activity", "shard-activity",
              "shard-serial-greedy", "shard-serial-refined"]
    if include_process:
        # Loopback socket workers: the distributed transport must stay
        # bit-exact with the in-process engines; same spawn cost class
        # as the process arm, so it rides behind the same flag.
        names += ["shard-process-refined", "shard-socket"]
        if narrow:
            # Shared-memory lane planes, explicitly required (auto would
            # silently fall back to pipes and test nothing new here).
            names.append("shard-shm")
        if full:
            names.append("shard-process-greedy")
    return [spec_from_name(name, kernel) for name in names]


def build_engine(spec: EngineSpec, design: str, lanes: int):
    """Construct one engine of the matrix for a registry design."""
    options = spec.option_dict()
    if spec.kind == "scalar":
        return ScalarFleet(
            compile_named_design(design), lanes, kernel=options.get("kernel", "PSU")
        )
    if spec.kind == "batch":
        return BatchSimulator(compile_named_design(design), lanes=lanes, **options)
    if spec.kind == "shard":
        return ShardedBatchSimulator(
            compiled_graph(design), lanes=lanes, num_partitions=2, **options
        )
    raise ValueError(f"unknown engine kind {spec.kind!r}")


def observable_outputs(design: str) -> List[str]:
    """The design's output signals every engine can peek."""
    bundle = compile_named_design(design)
    outputs = sorted(set(bundle.output_slots) & set(bundle.signal_slots))
    if not outputs:
        raise ValueError(f"design {design!r} has no observable outputs")
    return outputs


@dataclass
class DifferentialResult:
    """Outcome of one (design, seed) pass over the engine matrix."""

    design: str
    seed: int
    lanes: int
    cycles: int
    engines: List[str]
    watch: List[str]
    divergence: Optional[FleetDiff] = None
    include_process: bool = False
    full_matrix: bool = False
    kernel: str = "PSU"
    #: Set for runs over a custom engines= list: the exact matrix, as a
    #: comma-separated ``--engines`` value.
    custom_engines: str = ""

    @property
    def ok(self) -> bool:
        return self.divergence is None

    @property
    def repro_command(self) -> str:
        """A copy-paste CLI line reproducing exactly this run's matrix."""
        command = (
            "PYTHONPATH=src python -m repro.experiments differential "
            f"--design {self.design} --seed {self.seed} "
            f"--lanes {self.lanes} --cycles {self.cycles}"
        )
        if self.kernel != "PSU":
            command += f" --kernel {self.kernel}"
        if self.custom_engines:
            return command + f" --engines {self.custom_engines}"
        if self.include_process:
            command += " --process"
        if self.full_matrix:
            command += " --full"
        return command

    def summary(self) -> str:
        matrix = ", ".join(self.engines)
        if self.ok:
            return (
                f"differential OK: {self.design} seed={self.seed} "
                f"lanes={self.lanes} cycles={self.cycles} [{matrix}]"
            )
        diff = self.divergence
        return (
            f"differential FAIL: {self.design} seed={self.seed}: "
            f"engine {diff.simulator!r} diverges from {diff.reference!r} on "
            f"signal {diff.diff.signal!r} at cycle {diff.diff.cycle}, lane "
            f"{diff.diff.lane}: expected {diff.diff.expected}, got "
            f"{diff.diff.actual}\n  repro: {self.repro_command}"
        )


def run_differential(
    design: str,
    seed: int,
    lanes: int = DEFAULT_LANES,
    cycles: int = DEFAULT_CYCLES,
    engines: Optional[Sequence[EngineSpec]] = None,
    include_process: bool = False,
    full: bool = False,
    kernel: str = "PSU",
) -> DifferentialResult:
    """Build the engine matrix, run one seeded stimulus, diff the traces."""
    results = run_differential_suite(
        design, [seed], lanes=lanes, cycles=cycles, engines=engines,
        include_process=include_process, full=full, kernel=kernel,
    )
    return results[0]


def run_differential_suite(
    design: str,
    seeds: Sequence[int],
    lanes: int = DEFAULT_LANES,
    cycles: int = DEFAULT_CYCLES,
    engines: Optional[Sequence[EngineSpec]] = None,
    include_process: bool = False,
    full: bool = False,
    kernel: str = "PSU",
) -> List[DifferentialResult]:
    """Run several seeds through one engine matrix.

    The matrix is built once and ``reset()`` between seeds (partitioning
    and worker spawn-up are paid once), which is what makes per-design
    multi-seed fuzzing cheap enough for tier-1.
    """
    specs = list(
        engines
        if engines is not None
        else engine_matrix(
            design, include_process=include_process, full=full, kernel=kernel
        )
    )
    if not specs:
        raise ValueError("engines= selected no engines")
    # The scalar fleet is the reference when present; a custom engines=
    # list without one diffs against its first member instead.
    names = [spec.name for spec in specs]
    reference = "scalar" if "scalar" in names else names[0]
    watch = observable_outputs(design)
    # A hand-built engines= list is recorded verbatim (as --engines) so
    # the repro command rebuilds exactly this matrix, not the default.
    custom_engines = ",".join(names) if engines is not None else ""
    process_used = include_process or any("process" in name for name in names)
    full_used = full or "shard-process-greedy" in names
    results: List[DifferentialResult] = []
    # Engines spawn workers, so construction happens inside the
    # try/finally: a later spec's constructor failure still closes the
    # engines already built.
    fleet = {}
    try:
        for spec in specs:
            fleet[spec.name] = build_engine(spec, design, lanes)
        for index, seed in enumerate(seeds):
            if index:
                for engine in fleet.values():
                    engine.reset()
            workload = batched_workload_for(design, lanes, base_seed=seed)
            traces = run_lockstep(fleet, workload, watch, cycles)
            results.append(
                DifferentialResult(
                    design=design,
                    seed=seed,
                    lanes=lanes,
                    cycles=cycles,
                    engines=[spec.name for spec in specs],
                    watch=watch,
                    divergence=first_divergence(traces, reference=reference),
                    include_process=process_used,
                    full_matrix=full_used,
                    kernel=kernel,
                    custom_engines=custom_engines,
                )
            )
    finally:
        for engine in fleet.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()
    return results


# ----------------------------------------------------------------------
# CLI: python -m repro.experiments differential --design rocket-1 --seed 7
# ----------------------------------------------------------------------
def cli(argv: Optional[Sequence[str]] = None) -> int:
    from ..designs.registry import standard_designs

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments differential",
        description=(
            "Cross-check every simulation engine (scalar, batch backends, "
            "sharded executors/partitioners) on seeded stimulus and report "
            "the first trace divergence."
        ),
    )
    parser.add_argument("--design", default="rocket-1",
                        help="registry design name (default rocket-1)")
    parser.add_argument("--all-designs", action="store_true",
                        help="run every standard registry design")
    parser.add_argument("--seed", type=int, default=0,
                        help="base stimulus seed (default 0)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds (default 1)")
    parser.add_argument("--lanes", type=int, default=DEFAULT_LANES)
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES)
    parser.add_argument("--kernel", default="PSU")
    parser.add_argument("--process", action="store_true",
                        help="include the process-executor sharded arm")
    parser.add_argument("--full", action="store_true",
                        help="widen the process arm to both partitioner "
                             "strategies (implies --process)")
    parser.add_argument("--engines", default="",
                        help="comma-separated engine names (e.g. "
                             "scalar,batch-auto,shard-serial-greedy) "
                             "instead of the default matrix")
    args = parser.parse_args(argv)

    engines = (
        [spec_from_name(name, args.kernel)
         for name in args.engines.split(",") if name]
        if args.engines
        else None
    )
    designs = standard_designs() if args.all_designs else [args.design]
    seeds = list(range(args.seed, args.seed + args.seeds))
    failures = 0
    for design in designs:
        for result in run_differential_suite(
            design, seeds, lanes=args.lanes, cycles=args.cycles,
            engines=engines,
            include_process=args.process or args.full, full=args.full,
            kernel=args.kernel,
        ):
            print(result.summary())
            failures += 0 if result.ok else 1
    if failures:
        print(f"{failures} differential run(s) FAILED")
    return 1 if failures else 0
