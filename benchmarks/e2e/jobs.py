"""The work a benchmark child process does: one job per process.

``run.py`` starts ``python jobs.py '<json job>'`` with ``PYTHONPATH``,
``REPRO_CACHE_DIR`` and ``TMPDIR`` pointing inside the run's work
directory; the job prints one JSON object as its last line of output.

* ``setup``   -- build the workload's engine from FIRRTL text and take
  the first step, timed; against an empty cache (cold) or a populated
  one (warm), as the parent arranged.
* ``measure`` -- the untraced pass: reference check off the clock, then
  timed windows until ``seconds`` have been measured.
* ``trace``   -- the traced pass: the compile chain phase by phase, then
  windows with a span around every public call.

Every layer is timed from outside, through ``repro``'s public
functions; nothing under ``src/`` knows it is being measured.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import spans
import stats
import workloads as table
from workloads import REFERENCE_CYCLES, Workload

clock = time.perf_counter

#: Windows per mode (traced / untraced) of a ``trace`` job.
TRACE_WINDOWS = 2
SERVER_HOST = "127.0.0.1"
SERVER_START_TIMEOUT = 120.0
STEP_TIMEOUT = 30.0


#: Probes per candidate CPU when choosing where to measure (~7 ms each).
CPU_CHOICE_PROBES = 25
#: At most this many CPUs are tried; the sandbox has two.
CPU_CHOICE_CANDIDATES = 4


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts from here on (the
    server child, the shard workers), on one CPU: the quieter one.

    Why one.  The host is a 2-vCPU guest of a shared machine: a vCPU
    with nothing to run halts to the hypervisor, and waking it for the
    other side of a pipe or a socket costs a host scheduling round,
    whose length is the neighbours' doing.  Across both vCPUs the
    sharded workload ran 11k lane-cycles/s with windows anywhere from
    4.5k to 12.9k; on one CPU 15.7k within 3%, and the served one
    likewise (1.35k -> 1.75k).  On one CPU a wake-up is a context switch
    inside the guest, so the windows measure the program's own work per
    cycle -- framing, syscalls, exchange, kernels -- and not the
    hypervisor.  What they cannot show is a gain from overlap between
    processes: on one CPU the partitions' kernels run one after the
    other.

    Why the quieter one.  Each vCPU runs at about half speed while its
    neighbour on the host is busy -- a tenth of the time, mostly for a
    second or two but now and then for a whole run -- and the two vCPUs'
    slow stretches do not coincide (sampled once a second for five
    minutes: 10% and 11% slow, 1.5% both).  The host probe is run on each
    CPU in turn, alternating so all see the same stretch of time, and
    the one with the lower median wins.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))[:CPU_CHOICE_CANDIDATES]
    quietest = cpus[0]
    if len(cpus) > 1:
        probes: Dict[int, List[float]] = {cpu: [] for cpu in cpus}
        for _ in range(CPU_CHOICE_PROBES):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                probes[cpu].append(stats.host_probe())
        quietest = min(cpus, key=lambda cpu: statistics.median(probes[cpu]))
    os.sched_setaffinity(0, {quietest})


def rss_mb(who: int) -> float:
    """Peak resident set in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# In-process engines (batch, shard)
# ----------------------------------------------------------------------
@contextmanager
def engine(workload: Workload, source: str):
    """The workload's simulator, built from FIRRTL text; closed on exit
    (shard workers and their shm planes die with it)."""
    if workload.kind == "shard":
        from repro.shard.simulator import ShardedBatchSimulator

        sim = ShardedBatchSimulator(
            source, lanes=workload.lanes, kernel=workload.kernel,
            num_partitions=table.SHARD_PARTITIONS,
            partitioner=table.SHARD_PARTITIONER,
            executor=table.SHARD_EXECUTOR,
        )
        try:
            yield sim
        finally:
            sim.close()
    else:
        from repro.batch.simulator import BatchSimulator

        yield BatchSimulator(source, lanes=workload.lanes, kernel=workload.kernel)


def fallback_reason(workload: Workload, sim) -> Optional[str]:
    """Why the engine is *not* running what the workload names, or None.
    ``repro`` degrades silently (by design); the benchmark must not."""
    if workload.kind == "shard":
        styles = sim.describe_partitions()
        if workload.compiled and not all(s.endswith("/compiled") for s in styles):
            return f"partitions run {styles}, not the compiled kernel"
        if sim.transport != "shm":
            return f"exchange runs over {sim.transport!r}, not shm planes"
        return None
    return getattr(sim.kernel, "compiled_fallback", None)


def flatten(source: str):
    """The elaborated design: names the outputs and feeds the reference
    interpreter.  Parsed once per job, off the clock."""
    from repro.firrtl.elaborate import elaborate
    from repro.firrtl.parser import parse

    return elaborate(parse(source))


def run_window(sim, stimulus, output: str, step_times: List[float]) -> float:
    """One timed window: replay the stimulus from cycle 0 on a reset
    engine.  Per cycle: poke every input, observe one output (which
    settles the combinational logic), clock edge."""
    sim.reset()
    start = clock()
    for pokes in stimulus:
        for name, values in pokes:
            sim.poke(name, values)
        sim.peek(output)
        before = clock()
        sim.step()
        step_times.append(clock() - before)
    return clock() - start


def run_window_traced(rec: spans.Recorder, prefix: str, sim, stimulus,
                      output: str, peek_twice: bool) -> float:
    """:func:`run_window` with a span around each public call.  The
    ``peek`` of a cycle pays the settle; with ``peek_twice`` a second
    one, of the already settled plane, shows what observing alone costs
    (one extra row read per cycle, part of the trace overhead)."""
    sim.reset()
    poke, settle, peek, commit = (
        f"{prefix}.{phase}" for phase in ("poke", "settle", "peek", "commit")
    )
    with rec.span(f"{prefix}.window"):
        start = clock()
        for pokes in stimulus:
            with rec.span(poke):
                for name, values in pokes:
                    sim.poke(name, values)
            with rec.span(settle):
                sim.peek(output)
            if peek_twice:
                with rec.span(peek):
                    sim.peek(output)
            with rec.span(commit):
                sim.step()
        return clock() - start


def observe_engine(sim, stimulus, lanes: Sequence[int], outputs) -> Dict[int, list]:
    """Drive the first cycles of the stimulus and record every output of
    the chosen lanes, every cycle -- the engine side of the reference
    check."""
    sim.reset()
    seen: Dict[int, list] = {lane: [] for lane in lanes}
    for pokes in stimulus[:REFERENCE_CYCLES]:
        for name, values in pokes:
            sim.poke(name, values)
        rows = {name: sim.peek(name) for name in outputs}
        for lane in lanes:
            seen[lane].append({name: row[lane] for name, row in rows.items()})
        sim.step()
    return seen


def reference_check_engine(workload: Workload, flat, sim, stimulus) -> Tuple[int, int]:
    """``(lane-cycles checked, lane-cycles that mismatched)`` on the
    first and the last lane."""
    lanes = sorted({0, workload.lanes - 1})
    seen = observe_engine(sim, stimulus, lanes, flat.outputs)
    failed = sum(
        table.reference_mismatches(
            flat, table.lane_of(stimulus, lane, REFERENCE_CYCLES), seen[lane]
        )
        for lane in lanes
    )
    return sum(len(rows) for rows in seen.values()), failed


# ----------------------------------------------------------------------
# The served workload: a server child and client threads
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.experiments serve run`` as a child process."""

    def __init__(self, workload: Workload) -> None:
        # The server's stderr (asyncio's shutdown chatter on SIGINT) goes
        # to a file in TMPDIR, shown only if the server fails to start.
        self.log = tempfile.TemporaryFile(mode="w+")
        self.started = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "run",
             "--design", workload.design, "--engine", "batch",
             "--kernel", workload.kernel, "--lanes", str(workload.lanes),
             "--host", SERVER_HOST, "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        # A server that never announces itself must not hang the job.
        watchdog = threading.Timer(SERVER_START_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if "serving" not in line:
            self.log.seek(0)
            detail = self.log.read()[-2000:]
            self.close()
            raise RuntimeError(f"server child did not start: {line!r}\n{detail}")
        self.port = int(line.rsplit(":", 1)[1])

    def close(self) -> None:
        # SIGINT is this server's clean way out (``serve run`` catches
        # KeyboardInterrupt, closes the fleet and lets atexit remove its
        # temp dirs); SIGTERM would skip all of that.
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_session(port: int):
    from repro.serve.server import connect_session

    return connect_session(SERVER_HOST, port)


class ClientRun:
    """What one client thread brings back from a window."""

    def __init__(self) -> None:
        self.start = self.end = 0.0
        self.step_rtts: List[float] = []
        self.cycle_times: List[float] = []
        self.error: Optional[str] = None


def served_window(port: int, stimuli, output: str,
                  rec: Optional[spans.Recorder] = None) -> List[ClientRun]:
    """One window: a fresh session per client, all clients stepping
    concurrently (closed loop: each sends its next request when the
    previous one is answered).  With ``rec`` every request is a span."""
    runs = [ClientRun() for _ in stimuli]
    gate = threading.Barrier(len(stimuli))
    parent = None

    def client(index: int) -> None:
        run = runs[index]
        try:
            session = open_session(port)
            try:
                gate.wait(timeout=STEP_TIMEOUT)
                if rec:
                    with rec.span("serve.client", parent=parent):
                        served_cycles_traced(rec, session, stimuli[index], output, run)
                else:
                    served_cycles(session, stimuli[index], output, run)
            finally:
                session.close()
        except Exception as error:  # one failed request ends this client
            run.error = f"{type(error).__name__}: {error}"
            gate.abort()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(stimuli))]
    with (rec.span("serve.window") if rec else nullcontext()) as parent:
        try:
            for thread in threads:
                thread.start()
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
    errors = [run.error for run in runs if run.error]
    if errors:
        raise RuntimeError(f"served window failed: {errors}")
    return runs


def served_cycles(session, stimulus, output: str, run: ClientRun) -> None:
    run.start = clock()
    for pokes in stimulus:
        for name, value in pokes:
            session.poke(name, value)
        session.peek(output)
        before = clock()
        session.step(1, timeout=STEP_TIMEOUT)
        run.step_rtts.append(clock() - before)
    run.end = clock()


def served_cycles_traced(rec, session, stimulus, output: str, run: ClientRun) -> None:
    run.start = clock()
    for pokes in stimulus:
        began = clock()
        for name, value in pokes:
            with rec.span("serve.poke"):
                session.poke(name, value)
        with rec.span("serve.peek"):
            session.peek(output)
        with rec.span("serve.step"):
            session.step(1, timeout=STEP_TIMEOUT)
        run.cycle_times.append(clock() - began)
    run.end = clock()


def requests_per_window(stimuli) -> int:
    return sum(len(pokes) + 2 for stimulus in stimuli for pokes in stimulus)


def window_wall(runs: Sequence[ClientRun]) -> float:
    return max(r.end for r in runs) - min(r.start for r in runs)


def reference_check_served(flat, port: int, stimuli) -> Tuple[int, int]:
    """Each client's first cycles alone on a fresh session, every output
    every cycle, against the reference driven with the same stream."""
    outputs = flat.outputs
    attempted = failed = 0
    for stimulus in stimuli:
        head = stimulus[:REFERENCE_CYCLES]
        seen = []
        session = open_session(port)
        try:
            for pokes in head:
                for name, value in pokes:
                    session.poke(name, value)
                seen.append({name: session.peek(name) for name in outputs})
                session.step(1, timeout=STEP_TIMEOUT)
        finally:
            session.close()
        attempted += len(seen)
        failed += table.reference_mismatches(flat, head, seen)
    return attempted, failed


# ----------------------------------------------------------------------
# Job: setup
# ----------------------------------------------------------------------
def job_setup(workload: Workload) -> dict:
    """Engine constructor on FIRRTL text + first ``step(1)``.  Imports
    and the generation of the FIRRTL text are off the clock.  Served:
    server child launch -> first session's first step reply."""
    from repro.designs.registry import get_design

    source = get_design(workload.design)
    if workload.kind == "served":
        import repro.serve.server  # noqa: F401  (client import off the clock)

        with Server(workload) as server:
            session = open_session(server.port)
            try:
                session.step(1, timeout=STEP_TIMEOUT)
                setup_s = clock() - server.started
            finally:
                session.close()
        return {"setup_s": setup_s, "construct_s": setup_s, "fallback": None}
    import repro.batch.simulator  # noqa: F401
    import repro.shard.simulator  # noqa: F401

    start = clock()
    with engine(workload, source) as sim:
        built = clock()
        sim.step(1)
        done = clock()
        return {"setup_s": done - start, "construct_s": built - start,
                "fallback": fallback_reason(workload, sim)}


# ----------------------------------------------------------------------
# Job: measure (untraced)
# ----------------------------------------------------------------------
def timed_windows(seconds: float, min_windows: int,
                  one_window) -> Tuple[List[dict], List[float]]:
    """Call ``one_window() -> dict`` until ``seconds`` of windows have
    been measured (and at least ``min_windows``, however slow the host),
    with the host probe before and after each.  One window is run and
    discarded first: after the idle stretch of the reference check the
    host often runs the first window ~25% faster than any later one."""
    windows: List[dict] = []
    one_window()
    probes = [stats.host_probe()]
    measured = 0.0
    while measured < seconds or len(windows) < min_windows:
        window = one_window()
        probes.append(stats.host_probe())
        measured += window["seconds"]
        windows.append(window)
    return windows, probes


def job_measure(workload: Workload, seed: int, seconds: float,
                min_windows: int) -> dict:
    from repro.designs.registry import get_design

    pin_to_one_cpu()
    source = get_design(workload.design)
    flat = flatten(source)
    output = flat.outputs[0]
    if workload.kind == "served":
        return measure_served(workload, flat, seed, seconds, min_windows)
    stimulus = table.batch_stimulus(workload, seed)
    with engine(workload, source) as sim:
        fallback = fallback_reason(workload, sim)
        attempted, failed = reference_check_engine(workload, flat, sim, stimulus)

        def one_window() -> dict:
            step_times: List[float] = []
            elapsed = run_window(sim, stimulus, output, step_times)
            return {
                "seconds": elapsed,
                "lane_cps": workload.lanes * len(stimulus) / elapsed,
                "step_ms_p50": statistics.median(step_times) * 1e3,
            }

        windows, probes = timed_windows(seconds, min_windows, one_window)
    return measured(windows, probes, fallback, attempted, failed)


def measured(windows, probes, fallback, attempted: int, failed: int) -> dict:
    """The ``measure`` job's result.  Called after the engine is closed,
    so the workers or the server have been reaped and their peak RSS is
    in ``RUSAGE_CHILDREN`` (the largest child, not the sum)."""
    return {
        "windows": windows, "probes": probes, "fallback": fallback,
        "attempted": attempted, "failed": failed,
        "peak_rss_mb": rss_mb(resource.RUSAGE_SELF) + rss_mb(resource.RUSAGE_CHILDREN),
    }


def measure_served(workload: Workload, flat, seed: int, seconds: float,
                   min_windows: int) -> dict:
    stimuli = [table.client_stimulus(workload, seed, c) for c in range(workload.clients)]
    output = flat.outputs[0]
    per_window = requests_per_window(stimuli)
    with Server(workload) as server:
        attempted, failed = reference_check_served(flat, server.port, stimuli)

        def one_window() -> dict:
            nonlocal attempted
            # A request that errors or times out raises out of the
            # window and fails the whole workload, so every request
            # counted here was answered.
            runs = served_window(server.port, stimuli, output)
            attempted += per_window
            wall = window_wall(runs)
            rtts = [rtt for r in runs for rtt in r.step_rtts]
            return {
                "seconds": wall,
                "lane_cps": sum(len(s) for s in stimuli) / wall,
                "step_ms_p50": statistics.median(rtts) * 1e3,
            }

        windows, probes = timed_windows(seconds, min_windows, one_window)
    return measured(windows, probes, None, attempted, failed)


# ----------------------------------------------------------------------
# Job: trace
# ----------------------------------------------------------------------
def compile_chain(rec: spans.Recorder, workload: Workload, source: str) -> Dict[str, float]:
    """The public compile functions in pipeline order, one span each,
    with the artifact cache off; returns the exact-repeat counts.

    Mirrors what the engine constructors do: ``compile_design`` for the
    batch engines; ``compile_graph`` -> ``partition_graph`` ->
    ``build_rum`` -> one un-reoptimised bundle per partition for the
    sharded one.
    """
    from repro.firrtl.elaborate import elaborate
    from repro.firrtl.parser import parse
    from repro.graph.build import build_dfg
    from repro.graph.optimize import optimize
    from repro.lower import cbackend
    from repro.lower.program import lower_program
    from repro.oim.builder import build_oim

    with rec.span("firrtl.parse"):
        circuit = parse(source)
    with rec.span("firrtl.elaborate"):
        flat = elaborate(circuit)
    with rec.span("graph.build"):
        built = build_dfg(flat)
    with rec.span("graph.optimize"):
        optimized, _ = optimize(built)
    counts = {
        "firrtl.source_bytes": len(source.encode()),
        "graph.nodes_built": len(built.nodes),
        "graph.nodes_optimized": len(optimized.nodes),
        "oim.records": 0, "lower.rows": 0, "lower.layers": 0,
        "lower.c_bytes": 0, "lower.so_bytes": 0,
    }
    graphs = [optimized]
    if workload.kind == "shard":
        from repro.repcut.partition import partition_graph
        from repro.repcut.rum import build_rum

        with rec.span("repcut.partition"):
            cut = partition_graph(optimized, table.SHARD_PARTITIONS,
                                  strategy=table.SHARD_PARTITIONER)
        with rec.span("repcut.rum"):
            build_rum(cut)
        graphs = [partition.graph for partition in cut.partitions]
    for graph in graphs:
        with rec.span("oim.build"):
            bundle = build_oim(graph)
        with rec.span("lower.program"):
            program = lower_program(bundle)
        counts["oim.records"] += bundle.num_ops
        counts["lower.rows"] += program.num_records
        counts["lower.layers"] += program.num_layers
        if not workload.compiled:
            continue
        with rec.span("lower.emit_c"):
            c_source = cbackend.emit_c(program)
        level = "-O0" if program.num_records > cbackend.BIG_PROGRAM_ROWS else "-O1"
        with rec.span("lower.cc"):
            shared_object = cbackend.compile_shared_object(
                c_source, cbackend.find_compiler(), (level, *cbackend.BASE_CFLAGS)
            )
        with rec.span("lower.load"):
            cbackend.CompiledComb(shared_object, program.fingerprint)
        counts["lower.c_bytes"] += len(c_source)
        counts["lower.so_bytes"] += len(shared_object)
    return counts


COMPILE_SPANS = (
    "firrtl.parse", "firrtl.elaborate", "graph.build", "graph.optimize",
    "oim.build", "lower.program", "lower.emit_c", "lower.cc", "lower.load",
    "repcut.partition", "repcut.rum",
)


def alternate_windows(untraced_window, traced_window) -> Tuple[List[float], List[float]]:
    """Wall times of ``TRACE_WINDOWS`` untraced and as many traced
    windows, alternated so both see the same host.  Two warm-up windows
    are discarded first: the multi-process workloads run their first
    second ~25% faster than steady state, which would read as tracing
    overhead on whichever kind ran second."""
    untraced, traced = [], []
    untraced_window()
    untraced_window()
    for _ in range(TRACE_WINDOWS):
        untraced.append(untraced_window())
        traced.append(traced_window())
    return untraced, traced


def bench_layers(untraced: List[float], traced: List[float], cycles: int) -> Dict[str, float]:
    """The harness's own layer metrics of a trace pass (``cycles`` per
    window).  The overhead compares the fastest windows, so a window in
    the host's slow state does not read as tracing cost; the traced
    cycle is the mean, the denominator the phase shares add up to."""
    return {
        "bench.trace_overhead": min(traced) / min(untraced),
        "bench.traced_cycle_us": sum(traced) / len(traced) / cycles * 1e6,
        "untraced_cycle_us": min(untraced) / cycles * 1e6,
    }


def batch_phases(rec: spans.Recorder, sim, stimulus, output: str) -> Dict[str, float]:
    """Per-cycle phase times of a batch engine, in microseconds."""
    untraced, traced = alternate_windows(
        lambda: run_window(sim, stimulus, output, []),
        lambda: run_window_traced(rec, "batch", sim, stimulus, output, True),
    )
    cycles = TRACE_WINDOWS * len(stimulus)
    layers = bench_layers(untraced, traced, len(stimulus))
    for phase in ("poke", "settle", "commit", "peek"):
        layers[f"batch.{phase}_us"] = rec.total(f"batch.{phase}") / cycles * 1e6
    return layers


def job_trace(workload: Workload, seed: int, trace_path: str,
              per_layer: Dict[str, str], cache_load_s: float) -> dict:
    """``per_layer`` maps every declared layer metric to its unit;
    ``cache_load_s`` was measured by the parent's warm ``setup`` job."""
    from repro.designs.registry import get_design
    from repro.serve import artifacts

    pin_to_one_cpu()
    source = get_design(workload.design)
    output = flatten(source).outputs[0]
    rec = spans.Recorder(workload.name)
    probes = [stats.host_probe()]

    artifacts.disable_cache()
    layers: Dict[str, float] = {"serve.cache_load_s": cache_load_s}
    with rec.span("compile_chain"):
        layers.update(compile_chain(rec, workload, source))
    for name in COMPILE_SPANS:
        if rec.durations(name):
            layers[f"{name}_s"] = rec.total(name)
    cache = artifacts.configure_cache(os.environ["REPRO_CACHE_DIR"])

    # The engine's own per-cycle phases.  The sharded and the served
    # workload get them from a plain BatchSimulator of the same design,
    # kernel and lanes: the P=1 / no-wire baseline their own layers are
    # read against.
    plain = dataclasses.replace(workload, kind="batch")
    stimulus = table.batch_stimulus(plain, seed)
    with engine(plain, source) as sim:
        fallback = fallback_reason(plain, sim)
        layers.update(batch_phases(rec, sim, stimulus, output))
        stats_of = sim.activity_stats
        activity = stats_of.as_dict() if stats_of is not None else None
    probes.append(stats.host_probe())

    if activity is not None:
        layers.update({
            f"kernels.activity.{key}": activity[key]
            for key in ("ops_evaluated", "ops_skipped", "op_skip_rate",
                        "lane_skip_rate", "layer_skip_rate")
        })
    # The workload's own engine; its bench.* replace the baseline's.
    if workload.kind == "shard":
        own, fallback = trace_shard(rec, workload, source, stimulus, output)
        own["shard.speedup_vs_p1"] = (
            layers["untraced_cycle_us"] / own["untraced_cycle_us"]
        )
        layers.update(own)
    elif workload.kind == "served":
        layers.update(trace_served(rec, workload, source, seed, output))
    del layers["untraced_cycle_us"]
    probes.append(stats.host_probe())

    layers["lower.compiled_fallback"] = 1 if fallback else 0
    layers["serve.cache_entries"] = len(cache.entries())
    layers["serve.cache_bytes"] = cache.total_bytes
    layers["host.calib_ratio_min"] = stats.calib_ratio_min(probes)

    # Layers this workload never enters.  A time is spanned all the same
    # and reads the cost of an empty span (~0.1 us): a measurement, not
    # a made-up zero.  A count of work not done is 0.
    unused = []
    for name, unit in per_layer.items():
        if name in layers:
            continue
        unused.append(name)
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}.get(unit)
        if scale is None:
            layers[name] = 0
        else:
            with rec.span(name):
                pass
            layers[name] = rec.total(name) * scale
    rec.dump(trace_path)
    return {"layers": layers, "unused": unused, "fallback": fallback,
            "self_times": spans.self_times(rec.spans), "spans": len(rec.spans)}


def trace_shard(rec, workload: Workload, source: str, stimulus, output: str):
    with engine(workload, source) as sim:
        fallback = fallback_reason(workload, sim)
        def counters() -> Tuple[float, float, int, int]:
            return (sim.step_max_seconds, sim.step_total_seconds,
                    sim.sync_sent, sim.sync_suppressed)

        deltas = [0.0, 0.0, 0, 0]

        def traced_window() -> float:
            before = counters()
            wall = run_window_traced(rec, "shard", sim, stimulus, output, False)
            for index, (after, start) in enumerate(zip(counters(), before)):
                deltas[index] += after - start
            return wall

        untraced, traced = alternate_windows(
            lambda: run_window(sim, stimulus, output, []), traced_window
        )
        crit, total, sent, suppressed = deltas
        cycles = TRACE_WINDOWS * len(stimulus)
        cycle_us = sum(traced) / cycles * 1e6
        poke_us = rec.total("shard.poke") / cycles * 1e6
        crit_us = crit / cycles * 1e6
        layers = {
            "shard.cycle_us": cycle_us,
            "shard.poke_us": poke_us,
            "shard.kernel_crit_us": crit_us,
            "shard.kernel_sum_us": total / cycles * 1e6,
            # Everything that is neither driving inputs nor the slowest
            # partition's kernel: export, serialise, apply_sync, barrier.
            "shard.exchange_us": cycle_us - poke_us - crit_us,
            "shard.parallel_efficiency": total / (sim.num_partitions * crit),
            "shard.rows_sent_per_cycle": sent / cycles,
            "shard.rows_suppressed_per_cycle": suppressed / cycles,
            "shard.differential_savings": suppressed / (sent + suppressed),
            "repcut.replication_overhead": sim.replication_overhead,
            "repcut.effective_partitions": sim.num_partitions,
            **bench_layers(untraced, traced, len(stimulus)),
        }
    return layers, fallback


def trace_served(rec, workload: Workload, source: str, seed: int, output: str):
    from repro.serve.fleet import LaneFleet

    stimuli = [table.client_stimulus(workload, seed, c) for c in range(workload.clients)]
    cycles = len(stimuli[0])
    with Server(workload) as server:
        cycle_times: List[float] = []

        def traced_window() -> float:
            runs = served_window(server.port, stimuli, output, rec)
            cycle_times.extend(t for r in runs for t in r.cycle_times)
            return window_wall(runs)

        untraced, traced = alternate_windows(
            lambda: window_wall(served_window(server.port, stimuli, output)),
            traced_window,
        )
        step_rtts = rec.durations("serve.step")
        solo = served_window(server.port, stimuli[:1], output)[0].step_rtts
    requests = TRACE_WINDOWS * requests_per_window(stimuli)

    # The same sessions with no wire: LaneFleet.open_session() in process.
    inproc: List[float] = []
    with LaneFleet(source, engine="batch", lanes=workload.lanes,
                   kernel=workload.kernel) as fleet:
        sessions = [fleet.open_session() for _ in stimuli]

        def drive(session, stimulus) -> None:
            for pokes in stimulus:
                began = clock()
                for name, value in pokes:
                    session.poke(name, value)
                session.peek(output)
                session.step(1, wait=True, timeout=STEP_TIMEOUT)
                inproc.append(clock() - began)

        threads = [threading.Thread(target=drive, args=pair)
                   for pair in zip(sessions, stimuli)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    served_cycle_us = statistics.median(cycle_times) * 1e6
    inproc_us = statistics.median(inproc) * 1e6
    return {
        "serve.poke_rtt_us_p50": statistics.median(rec.durations("serve.poke")) * 1e6,
        "serve.step_rtt_us_p50": statistics.median(step_rtts) * 1e6,
        "serve.step_rtt_us_p99": stats.quantile(step_rtts, 0.99) * 1e6,
        "serve.peek_rtt_us_p50": statistics.median(rec.durations("serve.peek")) * 1e6,
        "serve.inproc_cycle_us_p50": inproc_us,
        "serve.wire_us": served_cycle_us - inproc_us,
        "serve.solo_step_rtt_us_p50": statistics.median(solo) * 1e6,
        "serve.requests": requests,
        # served_window raises on the first failed request.
        "serve.request_errors": 0,
        **bench_layers(untraced, traced, cycles),
    }


# ----------------------------------------------------------------------
JOBS = {"setup": job_setup, "measure": job_measure, "trace": job_trace}


def main(argv: Sequence[str]) -> int:
    # SIGINT is how the server child is asked to leave (Server.close).
    # Started from a shell's background job this process inherits it
    # *ignored*, and an ignored signal stays ignored across exec: the
    # server would sit out every SIGINT until the 10 s kill.  A handled
    # signal reverts to the default across exec, so handle it here.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    job = json.loads(argv[1])
    workload = table.BY_NAME[job.pop("workload")]
    reason = table.skip_reason(workload)
    if reason:
        print(json.dumps({"skipped": reason}))
        return 0
    print(json.dumps(JOBS[job.pop("job")](workload, **job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
