"""Corner cases across modules: dirty flags, identifiers, edge widths."""

import pytest

from repro.firrtl import elaborate, parse
from repro.graph import GraphSimulator, build_dfg
from repro.sim import Simulator
from repro.sim.waveform import _identifier


class TestLazyEvaluation:
    def test_peek_after_poke_sees_new_combinational_value(self, mixed_src):
        simulator = Simulator(mixed_src, preserve_signals=True)
        simulator.poke("a", 10)
        simulator.poke("b", 5)
        first = simulator.peek("s")
        simulator.poke("b", 6)  # no step: combinational update only
        assert simulator.peek("s") == first + 1

    def test_peek_stable_without_poke(self, mixed_src):
        simulator = Simulator(mixed_src)
        value = simulator.peek("out")
        assert simulator.peek("out") == value

    def test_graph_simulator_dirty_flag(self, mixed_design):
        simulator = GraphSimulator(build_dfg(mixed_design))
        simulator.poke("a", 1)
        before = simulator.peek("out")
        simulator.step()
        after = simulator.peek("out")
        # The register latched the combinational value from before the edge.
        assert isinstance(before, int) and isinstance(after, int)


class TestVcdIdentifiers:
    def test_single_char_codes_unique(self):
        codes = [_identifier(i) for i in range(94)]
        assert len(set(codes)) == 94
        assert all(len(c) == 1 for c in codes)

    def test_two_char_codes_after_exhaustion(self):
        code = _identifier(94)
        assert len(code) == 2
        assert _identifier(94) != _identifier(95)

    def test_many_signals_stay_unique(self):
        codes = {_identifier(i) for i in range(500)}
        assert len(codes) == 500

    def test_unique_across_length_boundaries(self):
        # The old fixed two-character tail wrapped its leading character
        # at index 94 + 94**2 and aliased identifiers from then on.
        two_char_span = 94 + 94 * 94
        count = two_char_span + 500
        codes = [_identifier(i) for i in range(count)]
        assert len(set(codes)) == count
        assert len(codes[two_char_span - 1]) == 2
        assert len(codes[two_char_span]) == 3

    def test_codes_use_printable_vcd_range(self):
        for index in (0, 93, 94, 94 + 94 * 94, 10**6):
            for char in _identifier(index):
                assert 33 <= ord(char) <= 126

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            _identifier(-1)

    def test_vcd_writer_assigns_unique_identifiers(self):
        class StubSim:
            def peek(self, name):
                return 0

        from repro.sim.waveform import VcdWriter

        count = 94 + 94 * 94 + 50
        signals = {f"s{i}": 1 for i in range(count)}
        writer = VcdWriter(StubSim(), signals)
        assert len(set(writer._idents.values())) == count


class TestWidthEdgeCases:
    def test_one_bit_arithmetic(self):
        design = elaborate(parse(
            "circuit T :\n  module T :\n"
            "    input a : UInt<1>\n    input b : UInt<1>\n"
            "    output s : UInt<2>\n    output c : UInt<1>\n"
            "    s <= add(a, b)\n    c <= and(a, b)\n"
        ))
        simulator = Simulator(design)
        simulator.poke("a", 1)
        simulator.poke("b", 1)
        assert simulator.peek("s") == 2
        assert simulator.peek("c") == 1

    def test_wide_64_bit_values(self):
        design = elaborate(parse(
            "circuit T :\n  module T :\n"
            "    input a : UInt<64>\n    input b : UInt<64>\n"
            "    output x : UInt<64>\n"
            "    x <= tail(add(a, b), 1)\n"
        ))
        simulator = Simulator(design, kernel="TI")
        big = (1 << 64) - 1
        simulator.poke("a", big)
        simulator.poke("b", 1)
        assert simulator.peek("x") == 0  # wraps at 64 bits

    def test_zero_op_design(self):
        """A design that is pure wiring still simulates."""
        design = elaborate(parse(
            "circuit T :\n  module T :\n"
            "    input a : UInt<4>\n    output z : UInt<4>\n"
            "    z <= a\n"
        ))
        simulator = Simulator(design)
        simulator.poke("a", 9)
        assert simulator.peek("z") == 9


class TestCppTextDetails:
    def test_rolled_kernel_has_rank_comments(self, mixed_bundle):
        from repro.kernels import generate_cpp

        text = generate_cpp(mixed_bundle, "RU").text
        assert "rank I" in text and "rank S" in text and "rank N" in text

    def test_nu_kernel_loops_per_op_type(self, mixed_bundle):
        from repro.kernels import generate_cpp

        text = generate_cpp(mixed_bundle, "NU").text
        for entry in mixed_bundle.op_table:
            assert f"rank N unrolled: {entry.name}" in text

    def test_ti_uses_scalars_not_arrays(self, mixed_bundle):
        from repro.kernels import generate_cpp

        ti = generate_cpp(mixed_bundle, "TI").text
        su = generate_cpp(mixed_bundle, "SU").text
        assert "const u64 v" in ti
        assert "const u64 v" not in su

    def test_commit_uses_two_phases(self, mixed_bundle):
        from repro.kernels import generate_cpp

        text = generate_cpp(mixed_bundle, "PSU").text
        assert "commit_stage" in text


class TestEstimatorFields:
    def test_result_carries_identifiers(self):
        from repro.experiments.common import perf_for

        result = perf_for("rocket-1", "NU", "amd")
        assert result.engine == "NU"
        assert result.design == "RocketSoc"
        assert "AMD" in result.machine
        assert result.sim_cycles == 540_000

    def test_host_cycles_consistent_with_time(self):
        from repro.experiments.common import perf_for
        from repro.perf.machines import get_machine

        result = perf_for("rocket-1", "NU", "intel-core")
        machine = get_machine("intel-core")
        assert result.sim_time_s == pytest.approx(
            result.host_cycles / (machine.freq_ghz * 1e9)
        )
