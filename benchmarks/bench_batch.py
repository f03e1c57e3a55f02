#!/usr/bin/env python3
"""Bench for the batched tensor simulation engine (repro.batch).

Measures lane-cycles/sec of one B-lane :class:`BatchSimulator` against
running B scalar simulators sequentially, across designs, kernels, and
batch sizes.  Doubles as a CLI so CI can smoke it and so a JSON baseline
(``BENCH_batch.json``) can be recorded for the perf trajectory:

    PYTHONPATH=src python benchmarks/bench_batch.py --tiny
    PYTHONPATH=src python benchmarks/bench_batch.py --json BENCH_batch.json

As with all measured (non-modelled) numbers, absolute rates are
host-dependent; the recorded result is the speedup ratio.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ and bench_common importable
    root = Path(__file__).resolve().parent
    sys.path.insert(0, str(root))
    sys.path.insert(0, str(root.parent / "src"))

from repro.batch import HAS_NUMPY
from repro.batch.backend import supports_u64
from repro.designs.registry import compile_named_design
from repro.experiments.batch_throughput import (
    attach_compiled_speedup,
    render_rows,
    throughput_rows,
)
from repro.lower.cbackend import has_toolchain

from bench_common import show, warm

DESIGNS = ("rocket-1", "gemmini-8", "sha3")
KERNELS = ("PSU",)
LANES = (1, 8, 64)
CYCLES = 96

#: The tiny CI smoke includes sha3 so the wide-design (u64xN split-limb)
#: fast path is perf-gated on every push, not just rocket's u64 path.
TINY_DESIGNS = ("rocket-1", "sha3")
TINY_LANES = (1, 8)
TINY_CYCLES = 16


def _render(rows) -> str:
    return render_rows(
        rows, title="Batched vs sequential-scalar lane throughput (measured)"
    )


# ----------------------------------------------------------------------
# pytest entry points (same harness idiom as the sibling benches)
# ----------------------------------------------------------------------
def test_batch_speedup(benchmark):
    """One B-lane OIM pass beats B sequential scalar sweeps at B=64."""
    warm("rocket-1")
    rows = benchmark(
        throughput_rows, ("rocket-1",), ("PSU",), (64,), CYCLES
    )
    assert rows[0].speedup > (5.0 if HAS_NUMPY else 0.2)
    show(_render(rows))


def test_compiled_beats_walk(benchmark):
    """The compiled C pass beats the NumPy walk it falls back to at B=64
    on rocket-1 (the compiled-backend acceptance bar; also enforced on
    recorded baselines by perf_gate's compiled floor)."""
    import pytest

    if not (HAS_NUMPY and has_toolchain()):
        pytest.skip("compiled backend unavailable (NumPy or C toolchain)")
    warm("rocket-1")
    rows = benchmark(
        throughput_rows, ("rocket-1",), ("PSU", "compiled"), (64,), CYCLES
    )
    by_kernel = {row.kernel: row for row in rows}
    assert by_kernel["compiled"].style == "compiled"  # no silent fallback
    assert (
        by_kernel["compiled"].batch_lane_cps > by_kernel["PSU"].batch_lane_cps
    )
    show(_render(rows))


def test_batch_lockstep_overhead(benchmark):
    """B=1 batching costs only constant-factor overhead, not asymptotics."""
    warm("rocket-1")
    rows = benchmark(
        throughput_rows, ("rocket-1",), ("PSU",), (1,), CYCLES
    )
    assert rows[0].speedup > 0.02
    show(_render(rows))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sweep (CI): one design, B<=8")
    parser.add_argument("--designs", nargs="+", default=None)
    parser.add_argument("--kernels", nargs="+", default=None)
    parser.add_argument("--lanes", nargs="+", type=int, default=None)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write rows + metadata as JSON")
    args = parser.parse_args(argv)

    designs = tuple(args.designs or (TINY_DESIGNS if args.tiny else DESIGNS))
    kernels = tuple(args.kernels or KERNELS)
    lanes = tuple(args.lanes or (TINY_LANES if args.tiny else LANES))
    cycles = args.cycles or (TINY_CYCLES if args.tiny else CYCLES)

    warm(*designs)
    rows = throughput_rows(designs, kernels, lanes, cycles)
    # The compiled C batch backend, wherever it can actually compile:
    # u64-plane designs on hosts with a toolchain.  A PSU arm rides along
    # when the main sweep lacks one, so compiled_speedup (compiled vs the
    # walk it falls back to) is always computable.
    if HAS_NUMPY and has_toolchain():
        compiled_designs = tuple(
            d for d in designs if supports_u64(compile_named_design(d))
        )
        if compiled_designs:
            compiled_kernels = (
                ("compiled",) if "PSU" in kernels else ("PSU", "compiled")
            )
            rows += throughput_rows(
                compiled_designs, compiled_kernels, lanes, cycles
            )
    elif HAS_NUMPY:
        print("(no C toolchain found: compiled-backend rows skipped)")
    print(_render(rows))
    if not HAS_NUMPY:
        print("\n(NumPy not installed: pure-Python lane fallback measured)")

    if args.json:
        payload = {
            "bench": "bench_batch",
            "numpy": HAS_NUMPY,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cycles_per_lane": cycles,
            "rows": attach_compiled_speedup([row.as_dict() for row in rows]),
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
