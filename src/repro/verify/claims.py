"""One-command pass/fail checks for the reproduction's headline claims.

Each claim is a self-contained function returning a :class:`ClaimVerdict`
with the measured numbers, the threshold applied, and a pass/fail bit --
the machine-checkable statement of what this repo reproduces:

1. **Batch speedup** -- lane-batched simulation at B=64 beats B
   independent scalar runs by a wide margin (the paper's core claim);
2. **Replication overhead** -- replication-capped KL/FM partition
   refinement keeps op replication under 1% (what makes P>1 a net win,
   PR 4);
3. **Warm-start** -- a second process building from a warm artifact
   cache starts decisively faster than a cold elaborate+partition+lower
   pipeline (PR 6);
4. **Differential matrix** -- every registry design agrees bit-exactly
   across the full engine matrix (PR 5).

Budgets: ``tiny`` keeps every claim CI-cheap (seconds each, run on every
push by the ``claims`` job); ``full`` widens cycle counts, seeds and
thresholds for a serious local run.  Thresholds under ``tiny`` are
deliberately conservative -- shared CI runners are noisy, and a flaky
gate is worse than a loose one.

CLI (also exposed as ``claims/claim<N>/run.sh``)::

    PYTHONPATH=src python -m repro.experiments claims --all --budget tiny
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Registry designs cheap enough for the full engine matrix; the rest
#: run the trimmed one (matches tests/test_differential.py).
SMALL_DESIGNS = ("rocket-1", "small-1", "gemmini-8", "sha3")
TRIMMED_MATRIX = ("scalar", "batch-auto", "shard-serial-greedy")


@dataclass
class ClaimVerdict:
    """The machine-readable outcome of one claim check."""

    claim: int
    name: str
    passed: bool
    budget: str
    seconds: float
    #: Measured values and the thresholds they were held against.
    details: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "claim": self.claim,
            "name": self.name,
            "passed": self.passed,
            "budget": self.budget,
            "seconds": round(self.seconds, 3),
            "details": self.details,
        }

    def summary(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        parts = ", ".join(
            f"{key}={value}" for key, value in self.details.items()
        )
        return (
            f"claim {self.claim} [{state}] {self.name} "
            f"({self.budget}, {self.seconds:.1f}s): {parts}"
        )


def _verdict(
    claim: int, name: str, budget: str, started: float,
    passed: bool, **details,
) -> ClaimVerdict:
    return ClaimVerdict(
        claim=claim, name=name, passed=passed, budget=budget,
        seconds=time.perf_counter() - started, details=details,
    )


# ----------------------------------------------------------------------
# Claim 1: batched simulation beats independent scalar runs at B=64
# ----------------------------------------------------------------------
def claim_batch_speedup(budget: str = "tiny") -> ClaimVerdict:
    from ..experiments.batch_throughput import measure

    started = time.perf_counter()
    cycles = 12 if budget == "tiny" else 48
    threshold = 4.0 if budget == "tiny" else 6.0
    row = measure("rocket-1", kernel="PSU", lanes=64, cycles=cycles)
    details = dict(
        design="rocket-1", lanes=64, cycles=cycles,
        speedup=round(row.speedup, 2), threshold=threshold,
        backend=row.backend,
    )
    # The claim is about the vectorised lane rank; the lane-by-lane
    # fallback (~0.2x) has none, so without NumPy there is nothing to
    # check -- say so instead of failing every no-NumPy leg.
    skipped = row.backend == "python"
    if skipped:
        details["skipped"] = "python backend"
    return _verdict(
        1, "batch-speedup", budget, started,
        passed=skipped or row.speedup >= threshold, **details,
    )


# ----------------------------------------------------------------------
# Claim 2: refined partitioning replicates < 1% of ops
# ----------------------------------------------------------------------
def claim_replication(budget: str = "tiny") -> ClaimVerdict:
    from ..designs.registry import compiled_graph
    from ..repcut.partition import partition_graph

    started = time.perf_counter()
    cases = [("rocket-1", 2)]
    if budget != "tiny":
        cases += [("rocket-1", 4), ("small-1", 2)]
    threshold = 0.01
    overheads = {}
    worst = 0.0
    for design, partitions in cases:
        result = partition_graph(compiled_graph(design), partitions, "refined")
        overhead = result.replication_overhead
        overheads[f"{design}/P{partitions}"] = round(overhead, 5)
        worst = max(worst, overhead)
    return _verdict(
        2, "refined-replication", budget, started,
        passed=worst < threshold,
        threshold=threshold, worst=round(worst, 5), overheads=overheads,
    )


# ----------------------------------------------------------------------
# Claim 3: warm artifact-cache startup beats cold construction
# ----------------------------------------------------------------------
_BUILD_SCRIPT = """\
import json, sys, time
design, partitions, lanes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
from repro.designs.registry import get_design
from repro.shard import ShardedBatchSimulator
import repro.serve.artifacts  # noqa: F401  (lazy import kept off the clock)
source = get_design(design)
start = time.perf_counter()
sim = ShardedBatchSimulator(
    source, lanes=lanes, num_partitions=partitions, partitioner="refined",
)
seconds = time.perf_counter() - start
sim.step(1)  # prove the cached build actually simulates
print(json.dumps({"seconds": seconds}))
sim.close()
"""


def _spawn_build(design: str, partitions: int, lanes: int,
                 cache_dir: str) -> float:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [src, env.get("PYTHONPATH", "")] if p
    )
    env["REPRO_CACHE_DIR"] = cache_dir
    out = subprocess.run(
        [sys.executable, "-c", _BUILD_SCRIPT, design, str(partitions),
         str(lanes)],
        capture_output=True, text=True, env=env, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["seconds"])


def claim_warm_start(budget: str = "tiny") -> ClaimVerdict:
    started = time.perf_counter()
    design = "rocket-1"
    partitions = 2 if budget == "tiny" else 4
    threshold = 1.5 if budget == "tiny" else 2.0
    with tempfile.TemporaryDirectory(prefix="repro-claim3-cache-") as cache:
        cold = _spawn_build(design, partitions, 8, cache)
        warm = _spawn_build(design, partitions, 8, cache)
    speedup = cold / warm if warm > 0 else float("inf")
    return _verdict(
        3, "warm-start", budget, started,
        passed=speedup >= threshold,
        design=design, partitions=partitions,
        cold_seconds=round(cold, 3), warm_seconds=round(warm, 3),
        speedup=round(speedup, 2), threshold=threshold,
    )


# ----------------------------------------------------------------------
# Claim 4: the whole registry agrees across the engine matrix
# ----------------------------------------------------------------------
def claim_differential(budget: str = "tiny") -> ClaimVerdict:
    from ..designs.registry import standard_designs
    from .differential import run_differential_suite, spec_from_name

    started = time.perf_counter()
    cycles = 8 if budget == "tiny" else 16
    seeds = [0] if budget == "tiny" else [0, 1]
    trimmed = [spec_from_name(name) for name in TRIMMED_MATRIX]
    checked = 0
    failures: List[str] = []
    for design in standard_designs():
        engines = None if design in SMALL_DESIGNS else trimmed
        for result in run_differential_suite(
            design, seeds, lanes=2, cycles=cycles, engines=engines
        ):
            checked += 1
            if not result.ok:
                failures.append(result.summary())
    return _verdict(
        4, "differential-matrix", budget, started,
        passed=not failures,
        designs=len(standard_designs()), runs=checked, cycles=cycles,
        failures=failures,
    )


CLAIMS: Dict[int, Callable[[str], ClaimVerdict]] = {
    1: claim_batch_speedup,
    2: claim_replication,
    3: claim_warm_start,
    4: claim_differential,
}


def run_claims(
    numbers: Sequence[int], budget: str = "tiny"
) -> List[ClaimVerdict]:
    verdicts = []
    for number in numbers:
        if number not in CLAIMS:
            raise KeyError(
                f"no claim {number}; available: {sorted(CLAIMS)}"
            )
        verdicts.append(CLAIMS[number](budget))
    return verdicts


# ----------------------------------------------------------------------
# CLI: python -m repro.experiments claims --all --budget tiny
# ----------------------------------------------------------------------
def cli(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments claims",
        description=(
            "One-command pass/fail checks for the reproduction's headline "
            "claims (batch speedup, replication overhead, warm start, "
            "differential matrix)."
        ),
    )
    parser.add_argument("--claim", type=int, default=0,
                        help="run one claim (1..4)")
    parser.add_argument("--all", action="store_true",
                        help="run every claim")
    parser.add_argument("--budget", choices=("tiny", "full"),
                        default=os.environ.get("CLAIM_BUDGET", "tiny"))
    parser.add_argument("--json", default="",
                        help="write the verdict list as JSON to this path")
    args = parser.parse_args(argv)

    if args.all:
        numbers = sorted(CLAIMS)
    elif args.claim:
        numbers = [args.claim]
    else:
        parser.error("pass --claim N or --all")

    verdicts = run_claims(numbers, args.budget)
    for verdict in verdicts:
        print(verdict.summary())
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([v.as_dict() for v in verdicts], indent=1)
        )
        print(f"verdicts written to {path}")
    failed = [v.claim for v in verdicts if not v.passed]
    if failed:
        print(f"FAILED claims: {failed}")
        return 1
    return 0
