#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md beside this file).

Three ways in, one measurement path:

* the contract of ``BENCHMARK.json`` -- one workload, one pass::

      python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

  prints the metrics by name and, as the last line, one JSON object
  ``{"correct", "attempted", "failed", "metrics"}``;

* the whole suite -- every workload, untraced then traced::

      python3 benchmarks/e2e/run.py --seed N --out results.json

* comparing two suite results against the bounds of ``BENCHMARK.json``::

      python3 benchmarks/e2e/run.py --check A.json B.json

This process only orchestrates: every set-up and every measurement runs
in a child (``jobs.py``), one at a time, so the load is generated by a
single process and the host's two cores are never oversubscribed.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import BY_NAME  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = HERE / ".work"
SHM_DIR = Path("/dev/shm")
#: The contract allows a run 180 s; leave room to tear down and report.
RUN_DEADLINE_S = 165.0


class Plan(NamedTuple):
    cold_runs: int
    warm_runs: int
    min_windows: int


FULL = Plan(cold_runs=2, warm_runs=5, min_windows=4)
SMOKE = Plan(cold_runs=1, warm_runs=1, min_windows=2)
#: A cold set-up slower than this is not repeated: two of them (5-9 s of
#: ``cc`` / partitioning each) would cost more than the run measures, and
#: the driver's 136 runs share one hour.
COLD_REPEAT_BELOW_S = 3.0
SMOKE_WORKLOAD = "gemmini8_compiled_b64"
#: The one layer metric this process measures itself, after the children.
LEAK_METRIC = "bench.leaked_tmp_dirs"


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Children and what they leave behind
# ----------------------------------------------------------------------
def shm_segments() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


class RunDir:
    """Scratch space of one workload run, inside the checkout: artifact
    caches and the children's ``TMPDIR``.  Leaving the ``with`` block
    removes it -- and with it any ``repro-*`` temp directory a child
    left behind, which :meth:`leaked_tmp_dirs` counts first -- and fails
    the run if a shared-memory segment outlived the children, because
    nothing else would ever remove that."""

    _serial = itertools.count()

    def __init__(self) -> None:
        self.path = WORK / f"run-{os.getpid()}-{next(self._serial)}"
        self.tmp = self.path / "tmp"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self._caches = itertools.count()
        self._shm_before: set = set()

    def __enter__(self) -> "RunDir":
        self.tmp.mkdir(parents=True)
        self._shm_before = shm_segments()
        return self

    def fresh_cache(self) -> Path:
        path = self.path / f"cache-{next(self._caches)}"
        path.mkdir()
        return path

    def leaked_tmp_dirs(self) -> int:
        """``repro-*`` directories the children so far did not remove."""
        return sum(1 for _ in self.tmp.glob("repro-*"))

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        leaked = sorted(shm_segments() - self._shm_before)
        for name in leaked:
            try:
                (SHM_DIR / name).unlink()
            except OSError:
                pass
        if leaked and exc_type is None:
            raise BenchError(f"children left shm segments behind: {leaked}")

    def job(self, cache: Path, **job) -> dict:
        """Run one ``jobs.py`` job in a child and return its result.
        The child leads its own process group, so whatever it started
        (server child, shard workers) is stopped with it."""
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
            ),
            REPRO_CACHE_DIR=str(cache),
            TMPDIR=str(self.tmp),
        )
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "jobs.py"), json.dumps(job)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"job {job['job']} of {job['workload']} timed out") from None
        finally:
            stop_group(proc)
        if proc.returncode != 0:
            raise BenchError(
                f"job {job['job']} of {job['workload']} exited {proc.returncode}"
            )
        return json.loads(out.strip().splitlines()[-1])


def adopt_orphans() -> None:
    """Make this process the one that orphaned grandchildren (shard
    workers, multiprocessing's resource tracker) are handed to when a
    job child exits, so :func:`stop_group` can reap them itself.  Left
    to the sandbox's init they stay zombies -- and their process group
    non-empty -- for ~1.5 s after every sharded job."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: stop_group polls until init has reaped them


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group and wait until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        try:
            # Only one job child runs at a time and it has been waited
            # for, so any child left to reap is an adopted orphan.
            if os.waitpid(-1, os.WNOHANG) != (0, 0):
                continue
        except ChildProcessError:
            pass
        time.sleep(0.01)


# ----------------------------------------------------------------------
# One workload, one pass
# ----------------------------------------------------------------------
def set_up(run: RunDir, workload: str, cold_runs: int, warm_runs: int,
           cache: Optional[Path] = None) -> dict:
    """Cold set-ups (each on an empty cache) then warm ones (each a
    fresh process on the cache the last cold run filled, or on
    ``cache``); or ``{"skipped": reason}`` when the host cannot run the
    workload."""
    cold = []
    for _ in range(cold_runs):
        cache = run.fresh_cache()
        result = run.job(cache, job="setup", workload=workload)
        if "skipped" in result:
            return {"skipped": result["skipped"]}
        cold.append(result)
    warm = [run.job(cache, job="setup", workload=workload)
            for _ in range(warm_runs)]
    return {"cold": cold, "warm": warm, "cache": cache}


def first_fallback(results: List[dict]) -> Optional[str]:
    return next((r["fallback"] for r in results if r.get("fallback")), None)


def untraced_pass(workload: str, seed: int, seconds: float, plan: Plan) -> dict:
    with RunDir() as run:
        setup = set_up(run, workload, 1, 1)
        if "skipped" in setup:
            return {"status": "skipped", "reason": setup["skipped"]}
        measured = run.job(setup["cache"], job="measure", workload=workload,
                           seed=seed, seconds=seconds, min_windows=plan.min_windows)
        # The other set-ups come after the measurement: the host's slow
        # state lasts seconds, so set-ups ~10 s apart rarely share it,
        # and the fastest of them is the quiet host's.
        repeat_cold = setup["cold"][0]["setup_s"] <= COLD_REPEAT_BELOW_S
        later = set_up(run, workload, plan.cold_runs - 1 if repeat_cold else 0,
                       plan.warm_runs - 1, setup["cache"])
    setup = {kind: setup[kind] + later[kind] for kind in ("cold", "warm")}
    windows = measured["windows"]
    # A handful of set-ups is too few for a quartile: the fastest stands.
    cold = stats.summarize([r["setup_s"] for r in setup["cold"]], stats.LOWER)
    warm = stats.summarize([r["setup_s"] for r in setup["warm"]], stats.LOWER)
    cold["value"], warm["value"] = cold["best"], warm["best"]
    end_to_end = {
        "setup_s": cold,
        "warm_setup_s": warm,
        "lane_cps": stats.summarize([w["lane_cps"] for w in windows], stats.HIGHER),
        "step_rtt_ms_p50": stats.summarize(
            [w["step_ms_p50"] for w in windows], stats.LOWER),
        "peak_rss_mb": stats.summarize([measured["peak_rss_mb"]], stats.LOWER),
    }
    attempted, failed = measured["attempted"], measured["failed"]
    fallback = first_fallback(setup["cold"] + setup["warm"] + [measured])
    if fallback:
        # A requested kernel that silently fell back fails the workload.
        failed = attempted
    return {
        "status": "ok", "end_to_end": end_to_end,
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted, "fallback": fallback,
        "calib_ratio_min": stats.calib_ratio_min(measured["probes"]),
    }


def traced_pass(workload: str, seed: int, per_layer: Dict[str, str]) -> dict:
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{workload}.json"
    with RunDir() as run:
        setup = set_up(run, workload, 1, 1)
        if "skipped" in setup:
            return {"status": "skipped", "reason": setup["skipped"]}
        traced = run.job(
            setup["cache"], job="trace", workload=workload, seed=seed,
            trace_path=str(trace_path),
            per_layer={n: u for n, u in per_layer.items() if n != LEAK_METRIC},
            cache_load_s=setup["warm"][0]["construct_s"],
        )
        traced["layers"][LEAK_METRIC] = run.leaked_tmp_dirs()
    fallback = first_fallback(setup["cold"] + setup["warm"] + [traced])
    return {
        "status": "ok", "per_layer": traced["layers"], "unused": traced["unused"],
        "self_times": traced["self_times"], "trace": str(trace_path.relative_to(ROOT)),
        # Operations of the traced pass are the spanned calls.
        "attempted": traced["spans"], "failed": traced["spans"] if fallback else 0,
        "fallback": fallback,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def contract_metrics(values: Dict[str, float], declared: List[dict]) -> dict:
    """``{name: {value, unit}}`` for exactly the declared metrics, each
    a finite number."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise BenchError(f"metrics out of step with BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        if not math.isfinite(value):
            raise BenchError(f"{metric['name']} is not finite: {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics


def print_metrics(workload: str, metrics: dict, unused: List[str]) -> None:
    for name, entry in metrics.items():
        note = "  (layer unused by this workload)" if name in unused else ""
        print(f"{workload:<26} {name:<36} {entry['value']:>16.6g} {entry['unit']}{note}")


def run_one(spec: dict, workload: str, seed: int, seconds: float,
            trace: bool, plan: Plan) -> dict:
    """One workload, one pass, in the shape both the contract line and
    the suite file are cut from."""
    if trace:
        result = traced_pass(workload, seed, {m["name"]: m["unit"] for m in spec["per_layer"]})
        declared, key = spec["per_layer"], "per_layer"
    else:
        result = untraced_pass(workload, seed, seconds, plan)
        declared, key = spec["end_to_end"], "end_to_end"
    if result["status"] == "ok":
        values = {
            name: entry["value"] if isinstance(entry, dict) else entry
            for name, entry in result[key].items()
        }
        result["metrics"] = contract_metrics(values, declared)
        print_metrics(workload, result["metrics"], result.get("unused", []))
    return result


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_suite(spec: dict, names: List[str], seed: int, seconds: float,
              plan: Plan, out: Optional[str]) -> int:
    document = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in names:
        entry = run_one(spec, name, seed, seconds, False, plan)
        if entry["status"] == "ok":
            traced = run_one(spec, name, seed, seconds, True, plan)
            entry.update({k: traced[k] for k in ("unused", "self_times", "trace")})
            entry["per_layer"] = traced["metrics"]
            entry["failed"] += traced["failed"]
            for metric, summary in entry["end_to_end"].items():
                summary["unit"] = entry["metrics"][metric]["unit"]
            del entry["metrics"]
        else:
            print(f"{name:<26} skipped: {entry['reason']}")
        document["workloads"][name] = entry
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1)
    ran = [e for e in document["workloads"].values() if e["status"] == "ok"]
    failed = [n for n, e in document["workloads"].items() if e.get("failed")]
    print(f"{len(ran)}/{len(names)} workloads ran, {len(failed)} with failed operations"
          + (f": {failed}" if failed else ""))
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print the contract line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed windows (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite mode: write the results here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"suite mode: only {SMOKE_WORKLOAD}, 1 cold run, 2 windows")
    parser.add_argument("--check", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two suite results against the bounds")
    args = parser.parse_args(argv)

    if args.check:
        return stats.check(SPEC_PATH, *args.check)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    # BENCHMARK.json names the workloads the driver gates on; the table
    # may hold more, which only the suite runs (see README.md).
    declared = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(declared) - set(BY_NAME))
    if unknown:
        raise BenchError(f"BENCHMARK.json names workloads the table lacks: {unknown}")
    adopt_orphans()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.workload:
        if args.workload not in BY_NAME:
            parser.error(f"unknown workload {args.workload!r}; one of {list(BY_NAME)}")
        result = run_one(spec, args.workload, args.seed, seconds, bool(args.trace), FULL)
        if result["status"] != "ok":
            print(f"{args.workload} cannot run here: {result['reason']}", file=sys.stderr)
            return 3
        if result["fallback"]:
            print(f"{args.workload} fell back: {result['fallback']}", file=sys.stderr)
        print(contract_line(result))
        return 0
    if args.smoke:
        return run_suite(spec, [SMOKE_WORKLOAD], args.seed, 0.0, SMOKE, args.out)
    return run_suite(spec, list(BY_NAME), args.seed, seconds, FULL, args.out)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        sys.exit(1)
