"""Tests for kernel configs, expression codegen, executable kernels, C++."""

import pytest

from repro.designs import library
from repro.firrtl import ReferenceSimulator, elaborate, parse
from repro.kernels import (
    ALL_KERNELS,
    generate_cpp,
    get_kernel_config,
    kernel_profile,
    make_kernel,
)
from repro.kernels.expr import needs_mask, python_expr
from repro.kernels.profile import INSTR_PER_OP
from repro.lower.cbackend import c_expr
from repro.sim import Simulator

from conftest import drive_random_inputs

KERNEL_NAMES = [k.name for k in ALL_KERNELS]


class TestConfigs:
    def test_seven_kernels_in_paper_order(self):
        assert KERNEL_NAMES == ["RU", "OU", "NU", "PSU", "IU", "SU", "TI"]

    def test_unrolling_is_cumulative(self):
        """Each kernel unrolls a superset of its predecessor's ranks."""
        for previous, current in zip(ALL_KERNELS, ALL_KERNELS[1:]):
            assert previous.unrolled <= current.unrolled

    def test_swizzle_point(self):
        assert get_kernel_config("RU").oim_format == "optimized"
        assert get_kernel_config("NU").oim_format == "swizzled"
        assert get_kernel_config("NU").loop_order == ("I", "N", "S", "O", "R")

    def test_only_ti_inlines(self):
        assert get_kernel_config("TI").tensor_inline
        assert not get_kernel_config("SU").tensor_inline

    def test_lookup_case_insensitive(self):
        assert get_kernel_config("psu").name == "PSU"
        with pytest.raises(KeyError):
            get_kernel_config("XX")

    def test_fully_unrolled(self):
        assert get_kernel_config("SU").fully_unrolled
        assert not get_kernel_config("PSU").fully_unrolled


class TestExprCodegen:
    def test_python_add_masks(self):
        expr = python_expr("add", ["a", "b"], [8, 8], 8)
        assert eval(expr, {"a": 200, "b": 100}) == (300 & 0xFF)

    def test_python_mux(self):
        expr = python_expr("mux", ["s", "x", "y"], [1, 8, 8], 8)
        assert eval(expr, {"s": 1, "x": 5, "y": 9}) == 5
        assert eval(expr, {"s": 0, "x": 5, "y": 9}) == 9

    def test_python_muxchain_order(self):
        expr = python_expr(
            "muxchain2", ["s1", "v1", "s2", "v2", "d"],
            [1, 8, 1, 8, 8], 8,
        )
        env = {"s1": 0, "v1": 1, "s2": 1, "v2": 2, "d": 3}
        assert eval(expr, env) == 2
        env["s1"] = 1
        assert eval(expr, env) == 1

    def test_python_division_guard(self):
        expr = python_expr("div", ["a", "b"], [8, 8], 8)
        assert eval(expr, {"a": 9, "b": 0}) == 0

    def test_needs_mask_classification(self):
        assert needs_mask("add") and needs_mask("tail") and needs_mask("bits")
        assert not needs_mask("and") and not needs_mask("mux")
        assert not needs_mask("muxchain4")

    def test_cpp_renders(self):
        text = c_expr("cat", ["a", "b"], [4, 4], 8)
        assert "<< 4" in text
        text = c_expr("mux", ["s", "a", "b"], [1, 8, 8], 8)
        assert "?" in text

    def test_cpp_wide_mask_suffix(self):
        text = c_expr("add", ["a", "b"], [40, 40], 41)
        assert "ULL" in text

    def test_unknown_op_rejected(self):
        with pytest.raises(KeyError):
            python_expr("bogus", ["a"], [1], 1)


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
class TestKernelEquivalence:
    """Every kernel must be bit-exact against the FIRRTL reference."""

    def test_mixed_design(self, kernel_name, mixed_src, mixed_design, rng):
        reference = ReferenceSimulator(mixed_design)
        simulator = Simulator(mixed_src, kernel=kernel_name)
        drive_random_inputs([reference, simulator], mixed_design, rng, 60)

    def test_gcd(self, kernel_name, gcd_src, rng):
        design = elaborate(parse(gcd_src))
        reference = ReferenceSimulator(design)
        simulator = Simulator(gcd_src, kernel=kernel_name)
        drive_random_inputs([reference, simulator], design, rng, 50)


class TestKernelInternals:
    def test_ti_writes_external_slots(self, mixed_bundle):
        kernel = make_kernel(mixed_bundle, "TI")
        values = mixed_bundle.initial_values()
        values[mixed_bundle.input_slots["a"]] = 9
        values[mixed_bundle.input_slots["b"]] = 4
        kernel.eval_comb(values)
        ou = make_kernel(mixed_bundle, "OU")
        expected = mixed_bundle.initial_values()
        expected[mixed_bundle.input_slots["a"]] = 9
        expected[mixed_bundle.input_slots["b"]] = 4
        ou.eval_comb(expected)
        for name, slot in mixed_bundle.output_slots.items():
            assert values[slot] == expected[slot], name
        for _, next_slot in mixed_bundle.register_commits:
            assert values[next_slot] == expected[next_slot]

    def test_psu_shares_nu_functional_path(self, mixed_bundle):
        from repro.kernels.pykernels import NUKernel

        assert isinstance(make_kernel(mixed_bundle, "PSU"), NUKernel)

    def test_iu_precomputes_schedule(self, mixed_bundle):
        kernel = make_kernel(mixed_bundle, "IU")
        assert len(kernel._groups) > 0
        total_ops = sum(len(s_list) for _, _, s_list, _ in kernel._groups)
        assert total_ops == mixed_bundle.num_ops


class TestCppCodegen:
    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    def test_generates_source(self, mixed_bundle, kernel_name):
        source = generate_cpp(mixed_bundle, kernel_name)
        assert "eval_cycle" in source.text
        assert source.kernel_statements > 0
        assert source.binary_code_bytes() > 0

    def test_rolled_kernels_design_independent_size(self, mixed_bundle):
        """RU/OU/NU/PSU binaries must not grow with the design (Table 4)."""
        from repro.designs.registry import compile_named_design

        small = generate_cpp(mixed_bundle, "PSU")
        large = generate_cpp(compile_named_design("rocket-1"), "PSU")
        # Kernel statements depend only on the op-type table, not op count.
        assert large.kernel_statements < small.kernel_statements * 5

    def test_su_statements_track_ops(self, mixed_bundle):
        source = generate_cpp(mixed_bundle, "SU")
        assert source.kernel_statements == mixed_bundle.num_ops

    def test_su_embeds_oim_in_code(self, mixed_bundle):
        assert generate_cpp(mixed_bundle, "SU").oim_data_bytes == 0
        assert generate_cpp(mixed_bundle, "RU").oim_data_bytes > 0

    def test_ordering_matches_table4(self):
        """At realistic design sizes the Table 4 ordering emerges."""
        from repro.designs.registry import compile_named_design

        bundle = compile_named_design("rocket-1")
        sizes = {
            name: generate_cpp(bundle, name).binary_code_bytes()
            for name in KERNEL_NAMES
        }
        assert sizes["RU"] < sizes["IU"] <= sizes["SU"]
        assert sizes["TI"] < sizes["SU"]


class TestProfiles:
    def test_instr_scale_with_extrapolation(self, mixed_bundle):
        one = kernel_profile(mixed_bundle, "PSU", extrapolation=1.0)
        ten = kernel_profile(mixed_bundle, "PSU", extrapolation=10.0)
        assert ten.ops == pytest.approx(10 * one.ops)
        # Instructions scale ~linearly (small constant layer overhead aside).
        assert ten.dyn_instr > 8.5 * one.dyn_instr
        assert ten.value_bytes == pytest.approx(10 * one.value_bytes)

    def test_instr_per_op_ordering(self, mixed_bundle):
        """Table 5's dynamic-instruction ordering RU >> OU > NU ~ PSU > SU."""
        profiles = {
            name: kernel_profile(mixed_bundle, name) for name in KERNEL_NAMES
        }
        assert profiles["RU"].dyn_instr > profiles["OU"].dyn_instr
        assert profiles["OU"].dyn_instr > profiles["NU"].dyn_instr
        assert profiles["NU"].dyn_instr > profiles["SU"].dyn_instr
        assert profiles["SU"].dyn_instr > profiles["TI"].dyn_instr

    def test_streamed_flags(self, mixed_bundle):
        assert not kernel_profile(mixed_bundle, "PSU").code_streamed
        assert kernel_profile(mixed_bundle, "SU").code_streamed

    def test_ti_touches_v_less(self, mixed_bundle):
        psu = kernel_profile(mixed_bundle, "PSU")
        ti = kernel_profile(mixed_bundle, "TI")
        assert ti.v_reads < psu.v_reads

    def test_calibration_constants_present(self):
        assert set(INSTR_PER_OP) == set(KERNEL_NAMES)
