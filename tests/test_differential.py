"""Seeded randomized differential fuzz suite (repro.verify.differential).

Every registry design runs random per-lane stimulus through the engine
matrix -- scalar reference, batch backends, sharded executors and
partitioner strategies -- asserting bit-exact observed traces.  Seeds
are deterministic; a failure reprints the one-line repro CLI command.

Budget knobs (the nightly CI fuzz job raises them):

* ``REPRO_FUZZ_SEEDS``  -- seeds per design (default 3);
* ``REPRO_FUZZ_BASE_SEED`` -- first seed (default 0; the nightly job
  varies it per run so successive nights explore new stimulus, while
  failing seeds stay pinned in the repro command);
* ``REPRO_FUZZ_CYCLES`` -- cycles per run (default: per-test, 4-8);
* ``REPRO_FUZZ_FULL``   -- 1 = full engine matrix everywhere, including
  the refined partitioner on the heavy designs and the process
  executor (tier-1 keeps the expensive arms on the small designs);
* ``REPRO_FUZZ_REPRO_FILE`` -- append failing repro commands here (the
  nightly job uploads the file as an artifact).
"""

import os
from pathlib import Path

import pytest

from repro.designs.registry import standard_designs
from repro.kernels import ALL_KERNELS
from repro.sim import FleetDiff, TraceDiff, first_divergence
from repro.verify import engine_matrix, run_differential_suite
from repro.verify.differential import (
    DifferentialResult,
    ScalarFleet,
    _named_engines,
    _spec,
    spec_from_name,
)

FUZZ_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "3"))
FUZZ_BASE_SEED = int(os.environ.get("REPRO_FUZZ_BASE_SEED", "0"))
FUZZ_CYCLES = int(os.environ.get("REPRO_FUZZ_CYCLES", "0"))
FUZZ_FULL = os.environ.get("REPRO_FUZZ_FULL", "") not in ("", "0")
REPRO_FILE = os.environ.get("REPRO_FUZZ_REPRO_FILE", "")

#: Small designs take the wide matrix (every batch backend + both
#: partitioner strategies) in tier-1; the heavy designs keep the
#: expensive refined-FM partitioning for the nightly budget.
SMALL_DESIGNS = ("rocket-1", "small-1", "gemmini-8", "sha3")
HEAVY_DESIGNS = tuple(
    design for design in standard_designs() if design not in SMALL_DESIGNS
)

#: Cheap trimmed matrix for the heavy designs: one engine per kernel
#: family (the scalar reference, the batched plane, the sharded RUM
#: exchange) still cross-checks every execution layer.
TRIMMED_MATRIX = [
    _spec("scalar", "scalar", kernel="PSU"),
    _spec("batch-auto", "batch", backend="auto", kernel="PSU"),
    _spec("shard-serial-greedy", "shard", executor="serial",
          partitioner="greedy", kernel="PSU"),
]


def _seeds():
    return list(range(FUZZ_BASE_SEED, FUZZ_BASE_SEED + FUZZ_SEEDS))


def _cycles(default):
    return FUZZ_CYCLES or default


def _record_failure(result: DifferentialResult) -> None:
    if REPRO_FILE:
        path = Path(REPRO_FILE)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as handle:
            handle.write(result.repro_command + "\n")


def _check(results) -> None:
    for result in results:
        if not result.ok:
            _record_failure(result)
            pytest.fail(result.summary())


class TestDifferentialFuzz:
    @pytest.mark.parametrize("design", SMALL_DESIGNS)
    def test_small_designs_wide_matrix(self, design):
        engines = engine_matrix(design, include_process=FUZZ_FULL)
        _check(
            run_differential_suite(
                design, _seeds(), cycles=_cycles(8), engines=engines
            )
        )

    @pytest.mark.parametrize("design", HEAVY_DESIGNS)
    def test_heavy_designs_trimmed_matrix(self, design):
        engines = (
            engine_matrix(design, include_process=True, full=True)
            if FUZZ_FULL
            else TRIMMED_MATRIX
        )
        _check(
            run_differential_suite(
                design, _seeds(), cycles=_cycles(4), engines=engines
            )
        )

    def test_engine_list_without_scalar_reference(self):
        """A custom matrix with no scalar fleet diffs against its first
        member instead of crashing."""
        engines = [
            _spec("batch-auto", "batch", backend="auto", kernel="PSU"),
            _spec("shard-serial-greedy", "shard", executor="serial",
                  partitioner="greedy", kernel="PSU"),
        ]
        results = run_differential_suite(
            "rocket-1", [0], cycles=4, engines=engines
        )
        assert results[0].ok
        with pytest.raises(ValueError):
            run_differential_suite("rocket-1", [0], engines=[])

    def test_custom_engine_list_round_trips_via_repro_command(self):
        """A run over a hand-built matrix records it as --engines, and
        spec_from_name rebuilds exactly those specs."""
        from repro.verify import spec_from_name

        result = run_differential_suite(
            "gemmini-8", [0], cycles=4, engines=TRIMMED_MATRIX
        )[0]
        assert result.repro_command.endswith(
            "--engines scalar,batch-auto,shard-serial-greedy"
        )
        rebuilt = [spec_from_name(name) for name in result.engines]
        assert rebuilt == TRIMMED_MATRIX
        with pytest.raises(KeyError):
            spec_from_name("warp-drive")

    def test_unknown_engine_error_lists_the_named_arms(self):
        """No batch arm is named after a kernel config (every config runs
        the same walk, which ``batch-<backend>`` covers), and the error
        advertises exactly the arms the table holds."""
        for config in ALL_KERNELS:
            name = f"batch-{config.name.lower()}"
            with pytest.raises(KeyError) as excinfo:
                spec_from_name(name)
            message = str(excinfo.value)
            for arm in _named_engines("PSU"):
                assert arm in message
            assert name not in message.split(";", 1)[1]

    def test_process_executor_arm(self):
        """The process executor joins the matrix for at least one design
        in tier-1 (every design under the nightly budget)."""
        engines = engine_matrix("rocket-1", include_process=True)
        assert any("process" in spec.name for spec in engines)
        _check(
            run_differential_suite(
                "rocket-1", [0], cycles=_cycles(8), engines=engines
            )
        )


class TestScalarFleet:
    def test_batched_surface(self, counter_src):
        fleet = ScalarFleet(counter_src, lanes=3)
        fleet.poke("enable", [1, 0, 1])
        fleet.step(2)
        assert fleet.peek("count") == [2, 0, 2]
        fleet.poke_lane("enable", 1, 1)
        fleet.step()
        assert fleet.peek("count") == [3, 1, 3]
        assert fleet.peek_lane("count", 2) == 3
        fleet.reset()
        assert fleet.cycle == 0 and fleet.peek("count") == [0, 0, 0]

    def test_lane_vector_length_validated(self, counter_src):
        fleet = ScalarFleet(counter_src, lanes=2)
        with pytest.raises(ValueError):
            fleet.poke("enable", [1, 0, 1])

    def test_signal_surface(self, counter_src):
        fleet = ScalarFleet(counter_src, lanes=2)
        assert "count" in fleet.signals
        assert fleet.signal_widths["count"] == 8


class TestDiagnostics:
    def _failed_result(self):
        return DifferentialResult(
            design="rocket-1",
            seed=7,
            lanes=2,
            cycles=16,
            engines=["scalar", "batch-u64"],
            watch=["out"],
            divergence=FleetDiff(
                "batch-u64", "scalar", TraceDiff(3, "out", 1, 2, lane=1)
            ),
        )

    def test_summary_names_signal_cycle_lane_engine(self):
        summary = self._failed_result().summary()
        assert "'out'" in summary
        assert "cycle 3" in summary
        assert "lane 1" in summary
        assert "'batch-u64'" in summary and "'scalar'" in summary

    def test_failure_reprints_repro_cli(self):
        result = self._failed_result()
        assert (
            "python -m repro.experiments differential "
            "--design rocket-1 --seed 7" in result.repro_command
        )
        assert result.repro_command in result.summary()

    def test_repro_command_records_process_arm(self):
        result = self._failed_result()
        result.include_process = True
        assert result.repro_command.endswith("--process")

    def test_first_divergence_picks_earliest(self):
        traces = {
            "scalar": {"out": [0, 1, 2, 3]},
            "late": {"out": [[0, 1, 2, 9], [0, 1, 2, 3]]},
            "early": {"out": [[0, 9, 2, 3], [0, 1, 2, 3]]},
        }
        diff = first_divergence(traces, reference="scalar")
        assert diff is not None
        assert diff.simulator == "early"
        assert diff.diff.cycle == 1 and diff.diff.signal == "out"
        assert diff.diff.lane == 0  # scalar reference broadcasts onto lane 0

    def test_fleet_agreement_returns_none(self):
        traces = {
            "scalar": {"out": [0, 1]},
            "batch": {"out": [[0, 1], [5, 6]]},  # lane 1 differs, lane 0 agrees
        }
        assert first_divergence(traces, reference="scalar") is None

    def test_cli_smoke(self, capsys):
        from repro.verify.differential import cli

        assert cli(["--design", "gemmini-8", "--seed", "1", "--cycles", "4"]) == 0
        out = capsys.readouterr().out
        assert "differential OK: gemmini-8 seed=1" in out

    def test_repro_file_recording(self, tmp_path, monkeypatch):
        import sys

        target = tmp_path / "artifacts" / "failing.txt"
        monkeypatch.setattr(sys.modules[__name__], "REPRO_FILE", str(target))
        result = self._failed_result()
        _record_failure(result)
        _record_failure(result)
        lines = target.read_text().splitlines()
        assert lines == [result.repro_command] * 2
