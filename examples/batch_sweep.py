#!/usr/bin/env python3
"""Batched simulation quickstart: B stimulus lanes through one OIM pass.

The batch rank is free in tensor algebra: widening every value slot to a
vector of B lanes turns one compiled design into a multi-seed throughput
engine (see the ``repro.batch`` package docstring).  This example runs a
design-space-style sweep -- every lane drives a different ``speed`` -- and
then measures lane-throughput against sequential scalar simulation.

Run:  PYTHONPATH=src python examples/batch_sweep.py
"""

import time

from repro import BatchSimulator, Simulator

FIRRTL = """
circuit Blinky :
  module Blinky :
    input clock : Clock
    input reset : UInt<1>
    input speed : UInt<4>
    output led : UInt<1>
    output ticks : UInt<16>
    regreset counter : UInt<16>, clock, reset, UInt<16>(0)
    node step = pad(add(speed, UInt<4>(1)), 16)
    counter <= tail(add(counter, step), 1)
    led <= bits(counter, 15, 15)
    ticks <= counter
"""

# Vector dispatch amortises with B: tiny designs like this one need a
# wide batch before one NumPy walk beats the (very cheap) scalar SU loop.
LANES = 64
CYCLES = 2000


def main() -> None:
    # ------------------------------------------------------------------
    # 1. One poke drives all lanes: scalars broadcast, lists are per-lane.
    # ------------------------------------------------------------------
    batch = BatchSimulator(FIRRTL, lanes=LANES, kernel="PSU")
    print(f"engine: {batch.kernel.name} (style={batch.kernel.style})")
    batch.poke("reset", 0)
    batch.poke("speed", [lane % 16 for lane in range(LANES)])  # lane i: speed=i%16
    batch.step(100)
    print("ticks after 100 cycles, first 8 lanes:")
    for lane, ticks in enumerate(batch.peek("ticks")[:8]):
        print(f"  speed={lane}: ticks={ticks:5d} led={batch.peek_lane('led', lane)}")

    # ------------------------------------------------------------------
    # 2. Checkpoint, diverge, rewind: snapshots fork whole sweeps.
    # ------------------------------------------------------------------
    checkpoint = batch.snapshot()
    batch.step(100)
    after = batch.peek("ticks")
    batch.restore(checkpoint)
    batch.step(100)
    assert batch.peek("ticks") == after          # deterministic replay
    print("\nsnapshot/restore replayed 100 cycles deterministically")

    # ------------------------------------------------------------------
    # 3. Throughput: one batched pass vs LANES sequential scalar runs.
    # ------------------------------------------------------------------
    scalar = Simulator(FIRRTL, kernel="SU")
    start = time.perf_counter()
    for speed in range(LANES):
        scalar.reset()
        scalar.poke("reset", 0)
        scalar.poke("speed", speed % 16)
        scalar.step(CYCLES)
    scalar_time = time.perf_counter() - start

    start = time.perf_counter()
    batch.step(CYCLES)
    batch_time = time.perf_counter() - start

    lane_cycles = LANES * CYCLES
    print(f"\nscalar: {lane_cycles / scalar_time:10.0f} lane-cycles/s "
          f"({LANES} sequential runs)")
    print(f"batch:  {lane_cycles / batch_time:10.0f} lane-cycles/s "
          f"(one {LANES}-lane pass)  -> {scalar_time / batch_time:.1f}x")


if __name__ == "__main__":
    main()
