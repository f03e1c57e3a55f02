"""Tests for the dataflow-graph substrate: build, optimise, levelize."""

import random

import pytest

from repro.firrtl import ReferenceSimulator, elaborate, parse
from repro.graph import (
    GraphSimulator,
    build_dfg,
    eliminate_dead_code,
    fuse_operator_chains,
    get_semantics,
    has_semantics,
    levelize,
    optimize,
)
from repro.graph.dfg import DataflowGraph
from repro.graph.opsem import MAX_CHAIN, REDUCE, SELECT, UNARY

from conftest import drive_random_inputs


class TestDfgStructure:
    def test_interning_gives_cse(self):
        graph = DataflowGraph()
        a = graph.add_input("a", 8)
        b = graph.add_input("b", 8)
        x = graph.add_op("add", (a, b), 9)
        y = graph.add_op("add", (a, b), 9)
        assert x == y
        assert graph.num_ops == 1

    def test_const_interning(self):
        graph = DataflowGraph()
        assert graph.add_const(5, 4) == graph.add_const(5, 4)
        assert graph.add_const(5, 4) != graph.add_const(5, 5)

    def test_duplicate_input_rejected(self):
        graph = DataflowGraph()
        graph.add_input("a", 1)
        with pytest.raises(ValueError):
            graph.add_input("a", 1)

    def test_validate_requires_register_next(self):
        graph = DataflowGraph()
        graph.add_register("r", 4)
        with pytest.raises(ValueError):
            graph.validate()

    def test_consumers(self):
        graph = DataflowGraph()
        a = graph.add_input("a", 4)
        x = graph.add_op("not", (a,), 4)
        y = graph.add_op("neg", (a,), 5)
        consumers = graph.consumers()
        assert sorted(consumers[a]) == sorted([x, y])

    def test_op_histogram(self, mixed_graph):
        histogram = mixed_graph.op_histogram()
        assert sum(histogram.values()) == mixed_graph.num_ops
        assert all(count > 0 for count in histogram.values())


class TestOpSemantics:
    def test_classes_cover_all_ops(self):
        from repro.graph.opsem import all_op_names

        for name in all_op_names():
            assert get_semantics(name).klass in (UNARY, REDUCE, SELECT)

    def test_arity_fixed_per_name(self):
        assert get_semantics("mux").arity == 3
        assert get_semantics("bits").arity == 3
        assert get_semantics("muxchain4").arity == 9
        assert get_semantics("orchain5").arity == 5

    def test_unknown_rejected(self):
        assert not has_semantics("bogus")
        with pytest.raises(KeyError):
            get_semantics("bogus")


class TestBuild:
    def test_params_become_const_operands(self, mixed_design):
        graph = build_dfg(mixed_design)
        for node in graph.op_nodes():
            semantics = get_semantics(node.op)
            assert len(node.operands) == semantics.arity, node.op

    def test_reset_becomes_mux(self):
        design = elaborate(parse(
            "circuit T :\n  module T :\n    input clock : Clock\n"
            "    input reset : UInt<1>\n    input a : UInt<4>\n"
            "    output z : UInt<4>\n"
            "    regreset r : UInt<4>, clock, reset, UInt<4>(9)\n"
            "    r <= a\n    z <= r\n"
        ))
        graph = build_dfg(design)
        next_node = graph.node(graph.registers["r"].next_nid)
        assert next_node.op == "mux"

    def test_width_adapters_inserted(self):
        design = elaborate(parse(
            "circuit T :\n  module T :\n"
            "    input a : UInt<8>\n    input b : UInt<8>\n"
            "    output z : UInt<4>\n"
            "    z <= add(a, b)\n"  # 9 bits into a 4-bit output
        ))
        graph = build_dfg(design)
        assert graph.node(graph.outputs["z"]).width == 4

    def test_build_matches_reference(self, mixed_design, rng):
        reference = ReferenceSimulator(mixed_design)
        graph_sim = GraphSimulator(build_dfg(mixed_design))
        drive_random_inputs([reference, graph_sim], mixed_design, rng, 60)


class TestOptimize:
    def test_constant_folding(self):
        graph = DataflowGraph()
        a = graph.add_const(3, 4)
        b = graph.add_const(5, 4)
        s = graph.add_op("add", (a, b), 5)
        graph.set_output("z", s)
        optimized, stats = optimize(graph)
        assert stats.constants_folded >= 1
        assert optimized.node(optimized.outputs["z"]).op == "const"
        assert optimized.node(optimized.outputs["z"]).value == 8

    def test_copy_propagation_pad(self):
        graph = DataflowGraph()
        a = graph.add_input("a", 8)
        w = graph.add_const(8, 4)
        p = graph.add_op("pad", (a, w), 8)  # pad to same width = copy
        graph.set_output("z", p)
        optimized, stats = optimize(graph)
        assert stats.copies_propagated >= 1
        assert optimized.outputs["z"] == optimized.inputs["a"]

    def test_mux_constant_selector(self):
        graph = DataflowGraph()
        a = graph.add_input("a", 4)
        b = graph.add_input("b", 4)
        sel = graph.add_const(1, 1)
        m = graph.add_op("mux", (sel, a, b), 4)
        graph.set_output("z", m)
        optimized, _ = optimize(graph)
        assert optimized.outputs["z"] == optimized.inputs["a"]

    def test_dead_code_removed(self):
        graph = DataflowGraph()
        a = graph.add_input("a", 4)
        graph.add_op("not", (a,), 4)  # dead
        live = graph.add_op("neg", (a,), 5)
        graph.set_output("z", live)
        optimized, stats = optimize(graph)
        assert stats.dead_removed >= 1
        assert optimized.num_ops == 1

    def test_preserve_signals_keeps_named(self):
        graph = DataflowGraph()
        a = graph.add_input("a", 4)
        dead = graph.add_op("not", (a,), 4)
        graph.signal_map["observed"] = dead
        live = graph.add_op("neg", (a,), 5)
        graph.set_output("z", live)
        kept = eliminate_dead_code(graph, preserve_signals=True)
        assert "observed" in kept.signal_map
        dropped = eliminate_dead_code(graph, preserve_signals=False)
        assert "observed" not in dropped.signal_map

    def test_mux_chain_fused(self):
        graph = DataflowGraph()
        sels = [graph.add_input(f"s{i}", 1) for i in range(3)]
        vals = [graph.add_input(f"v{i}", 8) for i in range(4)]
        m = vals[3]
        for i in (2, 1, 0):
            m = graph.add_op("mux", (sels[i], vals[i], m), 8)
        graph.set_output("z", m)
        fused = fuse_operator_chains(graph)
        ops = {node.op for node in fused.op_nodes()}
        assert "muxchain3" in ops

    def test_long_chain_segmented(self):
        graph = DataflowGraph()
        count = MAX_CHAIN + 3
        sels = [graph.add_input(f"s{i}", 1) for i in range(count)]
        vals = [graph.add_input(f"v{i}", 8) for i in range(count + 1)]
        m = vals[count]
        for i in reversed(range(count)):
            m = graph.add_op("mux", (sels[i], vals[i], m), 8)
        graph.set_output("z", m)
        fused = fuse_operator_chains(graph)
        chains = [n.op for n in fused.op_nodes() if n.op.startswith("muxchain")]
        assert f"muxchain{MAX_CHAIN}" in chains
        assert len(chains) >= 2  # segmented, not truncated

    def test_logic_chain_fused(self):
        graph = DataflowGraph()
        inputs = [graph.add_input(f"x{i}", 8) for i in range(5)]
        x = inputs[0]
        for other in inputs[1:]:
            x = graph.add_op("xor", (x, other), 8)
        graph.set_output("z", x)
        fused = fuse_operator_chains(graph)
        ops = {node.op for node in fused.op_nodes()}
        assert "xorchain5" in ops

    def test_optimized_graph_equivalent(self, mixed_design, rng):
        raw = build_dfg(mixed_design)
        optimized, _ = optimize(raw)
        drive_random_inputs(
            [GraphSimulator(raw), GraphSimulator(optimized)],
            mixed_design, rng, 60,
        )

    def test_shared_value_not_absorbed(self, rng):
        """A mux used by two consumers must survive fusion."""
        graph = DataflowGraph()
        s0 = graph.add_input("s0", 1)
        s1 = graph.add_input("s1", 1)
        a = graph.add_input("a", 8)
        b = graph.add_input("b", 8)
        inner = graph.add_op("mux", (s1, a, b), 8)
        outer = graph.add_op("mux", (s0, a, inner), 8)
        graph.set_output("z", outer)
        graph.set_output("w", inner)  # second consumer
        fused = fuse_operator_chains(graph)
        design_inputs = {"s0": 1, "s1": 1, "a": 8, "b": 8}

        class FakeDesign:
            inputs = design_inputs
            outputs = ["z", "w"]

        drive_random_inputs(
            [GraphSimulator(graph), GraphSimulator(fused)],
            FakeDesign, rng, 40,
        )


class TestLevelize:
    def test_layers_respect_dependencies(self, mixed_graph):
        lv = levelize(mixed_graph)
        for nid, layer in lv.layer_of.items():
            for operand in mixed_graph.node(nid).operands:
                operand_node = mixed_graph.node(operand)
                if operand_node.is_op:
                    assert lv.layer_of[operand] < layer

    def test_effectual_count_matches_ops(self, mixed_graph):
        lv = levelize(mixed_graph)
        assert lv.effectual_ops == mixed_graph.num_ops

    def test_single_layer_no_identities(self):
        graph = DataflowGraph()
        a = graph.add_input("a", 4)
        b = graph.add_input("b", 4)
        graph.set_output("z", graph.add_op("add", (a, b), 5))
        lv = levelize(graph)
        assert lv.num_layers == 1
        assert lv.identity_ops == 0

    def test_skip_layer_costs_identity(self):
        """A value consumed two layers later needs one identity copy."""
        graph = DataflowGraph()
        a = graph.add_input("a", 4)
        l0 = graph.add_op("not", (a,), 4)          # layer 0
        l1 = graph.add_op("neg", (l0,), 5)         # layer 1
        both = graph.add_op("cat", (l1, l0), 9)    # layer 2 reads l0 again
        graph.set_output("z", both)
        lv = levelize(graph)
        assert lv.num_layers == 3
        # a: consumed at layer 0 only -> 0; l0: farthest consumer layer 2,
        # produced layer 0 -> 1 identity; l1: consumed next layer -> 0.
        assert lv.identity_ops == 1

    def test_identity_ratio(self, mixed_graph):
        lv = levelize(mixed_graph)
        assert lv.identity_ratio == lv.identity_ops / lv.effectual_ops


class TestGraphSimulator:
    def test_register_swap(self, rng):
        """Two-phase commit: r1 <= r2; r2 <= r1 must swap, not duplicate."""
        design = elaborate(parse(
            "circuit T :\n  module T :\n    input clock : Clock\n"
            "    input reset : UInt<1>\n"
            "    output a : UInt<4>\n    output b : UInt<4>\n"
            "    regreset r1 : UInt<4>, clock, reset, UInt<4>(3)\n"
            "    regreset r2 : UInt<4>, clock, reset, UInt<4>(12)\n"
            "    r1 <= r2\n    r2 <= r1\n"
            "    a <= r1\n    b <= r2\n"
        ))
        sim = GraphSimulator(build_dfg(design))
        assert (sim.peek("a"), sim.peek("b")) == (3, 12)
        sim.step()
        assert (sim.peek("a"), sim.peek("b")) == (12, 3)
        sim.step()
        assert (sim.peek("a"), sim.peek("b")) == (3, 12)

    def test_matches_reference_on_alu(self, alu_src, rng):
        design = elaborate(parse(alu_src))
        drive_random_inputs(
            [ReferenceSimulator(design), GraphSimulator(build_dfg(design))],
            design, rng, 80,
        )
