"""Tests for the shared lowered program IR (:mod:`repro.lower`): rank
parity with the OIM tensor formats, consumer-transpose and leaf-table
correctness, limb-plan structure, artifact-cache round-trips,
cross-process fingerprint stability, and the emitted artefacts staying
byte-identical to the ones cache keys were minted against."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.designs.registry import compile_named_design
from repro.firrtl.elaborate import elaborate
from repro.firrtl.parser import parse
from repro.graph.build import build_dfg
from repro.graph.optimize import optimize
from repro.lower import (
    cached_program,
    is_narrow,
    limb_plan,
    lower_program,
)
from repro.lower.program import OimProgram
from repro.oim.builder import build_oim
from repro.oim.formats import lower_oim_fast

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")


def fresh_bundle(source: str):
    """A bundle with no registry memo attached (cold-lowering path)."""
    graph, _ = optimize(build_dfg(elaborate(parse(source))))
    return build_oim(graph)


# ----------------------------------------------------------------------
# Structure: the program mirrors the bundle exactly
# ----------------------------------------------------------------------
class TestProgramStructure:
    def test_rows_mirror_bundle_records(self, mixed_bundle):
        program = lower_program(mixed_bundle)
        assert program.num_layers == len(mixed_bundle.layers)
        for layer, bundle_layer in zip(program.layers, mixed_bundle.layers):
            assert len(layer) == len(bundle_layer)
            for row, record in zip(layer, bundle_layer):
                n, s, operands, widths, out_width = row
                assert (n, s, operands) == (record.n, record.s, record.operands)
                assert widths == tuple(
                    mixed_bundle.slot_width[r] for r in operands
                )
                assert out_width == mixed_bundle.slot_width[s]

    def test_op_vocabulary(self, mixed_bundle):
        program = lower_program(mixed_bundle)
        assert program.op_names == tuple(
            entry.name for entry in mixed_bundle.op_table
        )
        assert program.op_arities == tuple(
            entry.arity for entry in mixed_bundle.op_table
        )

    def test_consumers_are_the_r_rank_transpose(self, mixed_bundle):
        program = lower_program(mixed_bundle)
        assert len(program.consumers) == program.num_slots
        for slot, sites in enumerate(program.consumers):
            for layer_index, record_index in sites:
                row = program.layers[layer_index][record_index]
                assert slot in row[2]
        # ...and complete: every operand use appears in its transpose.
        for layer_index, layer in enumerate(program.layers):
            for record_index, row in enumerate(layer):
                for slot in row[2]:
                    assert (layer_index, record_index) in program.consumers[slot]

    def test_leaf_slots(self, mixed_bundle):
        program = lower_program(mixed_bundle)
        expected = set(program.input_slots.values()) | {
            state for state, _next in program.register_commits
        }
        assert program.leaf_slots == tuple(sorted(expected))

    def test_records_iterates_in_walk_order(self, mixed_bundle):
        program = lower_program(mixed_bundle)
        rows = [row for layer in program.layers for row in layer]
        assert list(program.records()) == rows
        assert program.num_records == len(rows)


# ----------------------------------------------------------------------
# Rank parity: the program regenerates the paper's tensor formats
# ----------------------------------------------------------------------
class TestRankParity:
    @pytest.mark.parametrize("design", ("small-1", "gemmini-8", "sha3"))
    def test_flat_ranks_match_lower_oim_fast(self, design):
        bundle = compile_named_design(design)
        program = cached_program(bundle)
        ranks = program.flat_ranks()
        lowered = lower_oim_fast(bundle, "optimized")
        assert list(ranks.i_payloads) == list(lowered.ranks["I"].payloads)
        assert list(ranks.s_coords) == list(lowered.ranks["S"].coords)
        assert list(ranks.n_coords) == list(lowered.ranks["N"].coords)
        assert list(ranks.r_coords) == list(lowered.ranks["R"].coords)

    @pytest.mark.parametrize("design", ("small-1", "sha3"))
    def test_swizzled_ranks_match_lower_oim_fast(self, design):
        bundle = compile_named_design(design)
        program = cached_program(bundle)
        ranks = program.swizzled_ranks()
        lowered = lower_oim_fast(bundle, "swizzled")
        assert list(ranks.n_payloads) == list(lowered.ranks["N"].payloads)
        assert list(ranks.s_coords) == list(lowered.ranks["S"].coords)
        assert list(ranks.r_coords) == list(lowered.ranks["R"].coords)


# ----------------------------------------------------------------------
# The limb plan over the program
# ----------------------------------------------------------------------
class TestLimbPlan:
    def test_plan_covers_every_row_exactly_once(self):
        bundle = compile_named_design("sha3")  # has >64-bit slots
        program = cached_program(bundle)
        plan = limb_plan(program)
        replayed = [row for _mode, _name, rows in plan for row in rows]
        every = [row for layer in program.layers for row in layer]
        assert sorted(replayed) == sorted(every)
        modes = set()
        for mode, name, rows in plan:
            modes.add(mode)
            assert mode in ("block", "narrow", "wide")
            if mode == "block":
                assert len(rows) > 1  # singletons stay on the record path
                assert {program.op_names[row[0]] for row in rows} == {name}
                for _n, _s, _operands, widths, out_width in rows:
                    assert is_narrow(widths, out_width)
            else:
                assert name is None and len(rows) == 1
                _n, _s, _operands, widths, out_width = rows[0]
                assert is_narrow(widths, out_width) == (mode == "narrow")
        assert "wide" in modes  # sha3's 65-bit slots must route wide

    def test_narrow_design_has_no_wide_steps(self):
        program = cached_program(compile_named_design("small-1"))
        for mode, _name, _rows in limb_plan(program):
            assert mode != "wide"


# ----------------------------------------------------------------------
# Fingerprints and caching
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_within_process(self):
        bundle = compile_named_design("small-1")
        assert lower_program(bundle).fingerprint == (
            lower_program(bundle).fingerprint
        )

    def test_differs_across_designs(self):
        prints = {
            design: cached_program(compile_named_design(design)).fingerprint
            for design in ("small-1", "gemmini-8", "sha3")
        }
        assert len(set(prints.values())) == len(prints)

    def test_stable_across_processes(self):
        """The cbin/program cache key must not depend on process state
        (hash randomisation, id()s, dict order)."""
        bundle = compile_named_design("small-1")
        script = (
            "from repro.designs.registry import compile_named_design\n"
            "from repro.lower import lower_program\n"
            "print(lower_program(compile_named_design('small-1')).fingerprint)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT
        env["PYTHONHASHSEED"] = "12345"  # not this process's seed
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert child.stdout.strip() == lower_program(bundle).fingerprint


class TestCachedProgram:
    def test_memoised_on_the_bundle(self, mixed_bundle):
        assert cached_program(mixed_bundle) is cached_program(mixed_bundle)

    def test_round_trips_through_artifact_cache(self, mixed_src, tmp_path):
        from repro.serve.artifacts import configure_cache, disable_cache

        try:
            cache = configure_cache(tmp_path)
            first = cached_program(fresh_bundle(mixed_src))
            assert cache.stats.puts == 1
            second = cached_program(fresh_bundle(mixed_src))
            assert cache.stats.hits == 1
            assert isinstance(second, OimProgram)
            assert second.fingerprint == first.fingerprint
            assert second.layers == first.layers
            assert second.consumers == first.consumers
        finally:
            disable_cache()


# ----------------------------------------------------------------------
# Emitted artefacts do not move
# ----------------------------------------------------------------------
#: sha256 of what the commit before the one-op-table refactor emitted,
#: and of the rolled C kernel (one source for every design: ``any``).  A
#: change that moves the kernel's digest re-keys its ``cbin`` entries by
#: itself; the pin makes that change deliberate.
PINNED = {
    ("data_kernel", "any"): "fa1888faaa9fc9755325b97e635fe58d5955bded2956381da48e02c076a1ba5b",
    ("emit_c", "rocket-1"): "91338afae8fe800352816360644ce231659f9b1343caa3f24ee86e60b8a026ae",
    ("emit_c", "gemmini-8"): "478573175419b120333fbb511fce021c3b172da200320ae854b48e43ab892d8c",
    ("emit_c", "gemmini-16"): "c24d74c204ea42c65e7e9a67f888f8ef10c92c177d857e33381c8a2aa29967af",
    ("python_expr", "rocket-1"): "fd71a84d4a030bc4d73d174e4fcf14806a0cbe80bb0f22ddd45acc6e7ef8231b",
    ("python_expr", "sha3"): "f0313f32bbebe1262f62ef84c7d9a2a3400dcc63c192f28fb4e7e1d189cb8d23",
}


def _emitted(kind: str, design: str) -> str:
    if kind == "data_kernel":
        from repro.lower.cbackend import data_kernel_source

        return data_kernel_source()
    bundle = compile_named_design(design)
    program = cached_program(bundle)
    if kind == "emit_c":
        from repro.lower.cbackend import emit_c

        return emit_c(program)
    from repro.kernels.expr import python_expr

    consts = program.const_values()
    return "\n".join(
        python_expr(
            program.op_names[n],
            [str(consts[r]) if r in consts else f"V[{r}]" for r in operands],
            widths, out_width,
        )
        for n, _s, operands, widths, out_width in program.records()
    )


@pytest.mark.parametrize("kind,design", sorted(PINNED))
def test_emitted_artefacts_are_pinned(kind, design):
    digest = hashlib.sha256(_emitted(kind, design).encode()).hexdigest()
    assert digest == PINNED[kind, design]
