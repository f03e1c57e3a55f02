"""Dataflow-graph optimisations (Figure 14's "Dataflow Graph Optimization").

Implements the passes the paper's prototype applies before OIM generation:

* **constant propagation/folding** -- classical optimisation, applied "as a
  means to optimize the OIM" (Section 6.1);
* **copy propagation** -- a *data-level* optimisation in the extended TeAAL
  hierarchy (Appendix B.1);
* **dead-code elimination** -- removes unobservable nodes;
* **operator fusion** -- mux-chain extraction plus or/and/xor chain fusion,
  a *cascade-level* optimisation (Appendix B.1);
* **CSE** falls out of the structural interning in
  :class:`~repro.graph.dfg.DataflowGraph`.

Each pass rebuilds the graph, so node ids stay dense and topologically
ordered.  ``preserve_signals=True`` keeps named signals alive for waveform
generation (Section 6.2: "optimizations that eliminate signals are
disabled").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from .dfg import DataflowGraph, DfgNode
from .opsem import MAX_CHAIN, SELECT, get_semantics, has_semantics


@dataclass
class OptStats:
    """Counters reported by :func:`optimize`."""

    nodes_before: int = 0
    nodes_after: int = 0
    constants_folded: int = 0
    copies_propagated: int = 0
    dead_removed: int = 0
    mux_chains_fused: int = 0
    logic_chains_fused: int = 0

    def merge(self, other: "OptStats") -> None:
        self.constants_folded += other.constants_folded
        self.copies_propagated += other.copies_propagated
        self.dead_removed += other.dead_removed
        self.mux_chains_fused += other.mux_chains_fused
        self.logic_chains_fused += other.logic_chains_fused


#: Hook signature: (new graph, old node, mapped operands, stats) -> nid or None.
_NodeHook = Callable[[DataflowGraph, DfgNode, Tuple[int, ...], OptStats], Optional[int]]


def _rebuild(
    graph: DataflowGraph,
    hook: Optional[_NodeHook] = None,
    keep: Optional[Set[int]] = None,
    stats: Optional[OptStats] = None,
) -> DataflowGraph:
    """Rebuild ``graph``, optionally transforming or dropping nodes.

    ``keep`` restricts which old node ids are materialised (for DCE and
    fusion); leaves are always kept.  ``hook`` may return a replacement node
    id in the new graph (e.g. a folded constant).
    """
    stats = stats if stats is not None else OptStats()
    new = DataflowGraph(graph.name)
    mapping: Dict[int, int] = {}

    for name, nid in graph.inputs.items():
        mapping[nid] = new.add_input(name, graph.node(nid).width)
    for name, reg in graph.registers.items():
        mapping[reg.state_nid] = new.add_register(
            name, reg.width, reg.init_value, reg.reset_input, clock=reg.clock
        )

    for node in graph.nodes:
        if node.nid in mapping:
            continue
        if keep is not None and node.nid not in keep:
            continue
        if node.op == "const":
            mapping[node.nid] = new.add_const(node.value, node.width)
            continue
        operands = tuple(mapping[o] for o in node.operands)
        replacement = hook(new, node, operands, stats) if hook else None
        if replacement is None:
            replacement = new.add_op(node.op, operands, node.width)
        mapping[node.nid] = replacement

    for name, reg in graph.registers.items():
        new.set_register_next(name, mapping[reg.next_nid])
    for name, nid in graph.outputs.items():
        new.set_output(name, mapping[nid])
    for name, nid in graph.signal_map.items():
        if nid in mapping:
            new.signal_map[name] = mapping[nid]
    return new


# ----------------------------------------------------------------------
# Constant folding + copy propagation (one combined hook)
# ----------------------------------------------------------------------
def _fold_hook(
    new: DataflowGraph, node: DfgNode, operands: Tuple[int, ...], stats: OptStats
) -> Optional[int]:
    op_nodes = [new.node(o) for o in operands]

    # Constant folding: every operand constant and semantics known.
    if has_semantics(node.op) and op_nodes and all(n.op == "const" for n in op_nodes):
        semantics = get_semantics(node.op)
        value = semantics(
            [n.value for n in op_nodes], [n.width for n in op_nodes], node.width
        )
        stats.constants_folded += 1
        return new.add_const(value, node.width)

    # Mux with a constant selector: keep the chosen branch.
    if node.op == "mux" and op_nodes[0].op == "const":
        stats.constants_folded += 1
        chosen = operands[1] if op_nodes[0].value else operands[2]
        return _copy_or_adapt(new, chosen, node.width, stats)

    # Copy propagation: width-preserving pass-through ops.
    if node.op in ("pad", "asUInt", "asSInt", "cvt", "ident", "tail"):
        source = op_nodes[0]
        if source.width == node.width:
            if node.op in ("pad", "tail"):
                # Parameterised: only a no-op when the width is unchanged.
                stats.copies_propagated += 1
                return operands[0]
            stats.copies_propagated += 1
            return operands[0]
    if node.op == "bits":
        source = op_nodes[0]
        hi, lo = op_nodes[1], op_nodes[2]
        if (
            hi.op == "const"
            and lo.op == "const"
            and lo.value == 0
            and hi.value == source.width - 1
            and node.width == source.width
        ):
            stats.copies_propagated += 1
            return operands[0]

    # Algebraic identities with a constant operand.
    if node.op in ("or", "xor", "add") and len(op_nodes) == 2:
        for position in (0, 1):
            other = 1 - position
            if op_nodes[position].op == "const" and op_nodes[position].value == 0:
                if op_nodes[other].width == node.width:
                    stats.copies_propagated += 1
                    return operands[other]
    if node.op in ("sub", "shl", "shr", "dshl", "dshr"):
        if op_nodes[1].op == "const" and op_nodes[1].value == 0:
            if op_nodes[0].width == node.width:
                stats.copies_propagated += 1
                return operands[0]
    if node.op == "and" and len(op_nodes) == 2:
        for position in (0, 1):
            other = 1 - position
            constant = op_nodes[position]
            if (
                constant.op == "const"
                and constant.value == (1 << constant.width) - 1
                and op_nodes[other].width == node.width
                and constant.width >= op_nodes[other].width
            ):
                stats.copies_propagated += 1
                return operands[other]
    if node.op == "mul" and len(op_nodes) == 2:
        for position in (0, 1):
            other = 1 - position
            if op_nodes[position].op == "const" and op_nodes[position].value == 1:
                if op_nodes[other].width == node.width:
                    stats.copies_propagated += 1
                    return operands[other]
    return None


def _copy_or_adapt(
    new: DataflowGraph, nid: int, width: int, stats: OptStats
) -> int:
    """Return ``nid`` or a width adapter so the replacement keeps its width."""
    node = new.node(nid)
    if node.width == width:
        return nid
    if node.width > width:
        hi = new.add_const(width - 1, max(1, (width - 1).bit_length()))
        lo = new.add_const(0, 1)
        return new.add_op("bits", (nid, hi, lo), width)
    pad_to = new.add_const(width, max(1, width.bit_length()))
    return new.add_op("pad", (nid, pad_to), width)


# ----------------------------------------------------------------------
# Dead-code elimination
# ----------------------------------------------------------------------
def eliminate_dead_code(
    graph: DataflowGraph, preserve_signals: bool = False, stats: Optional[OptStats] = None
) -> DataflowGraph:
    """Drop nodes unreachable from the outputs and register next-values."""
    stats = stats if stats is not None else OptStats()
    live: Set[int] = set()
    roots = graph.roots()
    if preserve_signals:
        roots = roots + list(graph.signal_map.values())
    stack = [nid for nid in roots if nid >= 0]
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        stack.extend(graph.nodes[nid].operands)
    stats.dead_removed += sum(
        1 for n in graph.nodes if n.is_op and n.nid not in live
    )
    return _rebuild(graph, keep=live, stats=stats)


# ----------------------------------------------------------------------
# Operator fusion (mux chains and or/and/xor chains)
# ----------------------------------------------------------------------
def fuse_operator_chains(
    graph: DataflowGraph,
    preserve_signals: bool = False,
    stats: Optional[OptStats] = None,
) -> DataflowGraph:
    """Fuse mux chains and associative logic chains into single operations.

    A chain is fused when every interior node has exactly one consumer (and,
    in ``preserve_signals`` mode, no name).  Fused chains become
    ``muxchain{k}`` / ``{or,and,xor}chain{k}`` nodes, up to
    :data:`~repro.graph.opsem.MAX_CHAIN` links.
    """
    stats = stats if stats is not None else OptStats()
    consumers = graph.consumers()
    named: Set[int] = set(graph.signal_map.values()) if preserve_signals else set()
    protected: Set[int] = set(graph.outputs.values())
    protected.update(reg.next_nid for reg in graph.registers.values())

    def fusible_interior(nid: int) -> bool:
        return (
            len(consumers[nid]) == 1
            and nid not in named
            and nid not in protected
        )

    absorbed: Set[int] = set()
    replacements: Dict[int, Tuple[str, Tuple[int, ...]]] = {}

    # --- mux chains ----------------------------------------------------
    def is_chain_interior(nid: int) -> bool:
        """A mux absorbed into its single consumer's default position."""
        if not fusible_interior(nid):
            return False
        consumer = graph.node(consumers[nid][0])
        return consumer.op == "mux" and consumer.operands[2] == nid

    for node in graph.nodes:
        if node.op != "mux" or node.nid in absorbed:
            continue
        if is_chain_interior(node.nid):
            continue  # an inner link; its chain head absorbs it
        # Collect the maximal chain hanging off this head via defaults.
        chain: List[DfgNode] = [node]
        while True:
            default_node = graph.node(chain[-1].operands[2])
            if default_node.op == "mux" and fusible_interior(default_node.nid):
                chain.append(default_node)
            else:
                break
        if len(chain) < 2:
            continue
        # Fuse in segments of MAX_CHAIN links; each segment's default is the
        # next segment's head (kept as a node), or the final default value.
        for start in range(0, len(chain), MAX_CHAIN):
            segment = chain[start:start + MAX_CHAIN]
            if len(segment) < 2:
                continue
            flat: List[int] = []
            for link in segment:
                flat.extend((link.operands[0], link.operands[1]))
            flat.append(segment[-1].operands[2])
            replacements[segment[0].nid] = (
                f"muxchain{len(segment)}", tuple(flat)
            )
            absorbed.update(link.nid for link in segment[1:])
            stats.mux_chains_fused += 1

    # --- associative logic chains ---------------------------------------
    for node in graph.nodes:
        if node.op not in ("or", "and", "xor") or node.nid in absorbed:
            continue
        if node.nid in replacements:
            continue
        parent_same = [
            c for c in consumers[node.nid] if graph.node(c).op == node.op
        ]
        if parent_same and fusible_interior(node.nid):
            continue  # interior of a tree; fused from its root
        # Expand a bounded frontier of same-op interior nodes into leaves.
        frontier: List[int] = list(node.operands)
        local_absorbed: List[int] = []
        expanded = True
        while expanded and len(frontier) < MAX_CHAIN:
            expanded = False
            for position, nid in enumerate(frontier):
                current = graph.node(nid)
                if (
                    current.op == node.op
                    and fusible_interior(nid)
                    and nid not in replacements
                    and nid not in absorbed
                    and len(frontier) + 1 <= MAX_CHAIN
                ):
                    frontier[position:position + 1] = list(current.operands)
                    local_absorbed.append(nid)
                    expanded = True
                    break
        if len(frontier) >= 3:
            absorbed.update(local_absorbed)
            replacements[node.nid] = (
                f"{node.op}chain{len(frontier)}", tuple(frontier)
            )
            stats.logic_chains_fused += 1

    if not replacements:
        return graph

    # Rebuild manually to remap fused operand lists (which reference *old*
    # node ids across absorbed interiors).
    new = DataflowGraph(graph.name)
    mapping: Dict[int, int] = {}
    for name, nid in graph.inputs.items():
        mapping[nid] = new.add_input(name, graph.node(nid).width)
    for name, reg in graph.registers.items():
        mapping[reg.state_nid] = new.add_register(
            name, reg.width, reg.init_value, reg.reset_input, clock=reg.clock
        )
    for node in graph.nodes:
        if node.nid in mapping or node.nid in absorbed:
            continue
        if node.op == "const":
            mapping[node.nid] = new.add_const(node.value, node.width)
            continue
        if node.nid in replacements:
            op, old_operands = replacements[node.nid]
            operands = tuple(mapping[o] for o in old_operands)
            mapping[node.nid] = new.add_op(op, operands, node.width)
            continue
        operands = tuple(mapping[o] for o in node.operands)
        mapping[node.nid] = new.add_op(node.op, operands, node.width)
    for name, reg in graph.registers.items():
        new.set_register_next(name, mapping[reg.next_nid])
    for name, nid in graph.outputs.items():
        new.set_output(name, mapping[nid])
    for name, nid in graph.signal_map.items():
        if nid in mapping:
            new.signal_map[name] = mapping[nid]
    return new


# ----------------------------------------------------------------------
# Pass manager
# ----------------------------------------------------------------------
def optimize(
    graph: DataflowGraph,
    constant_folding: bool = True,
    copy_propagation: bool = True,
    fuse_chains: bool = True,
    dead_code: bool = True,
    preserve_signals: bool = False,
) -> Tuple[DataflowGraph, OptStats]:
    """Run the optimisation pipeline; returns the new graph and statistics."""
    stats = OptStats(nodes_before=len(graph))
    if constant_folding or copy_propagation:
        graph = _rebuild(graph, hook=_fold_hook, stats=stats)
    if fuse_chains:
        graph = fuse_operator_chains(graph, preserve_signals, stats)
    if dead_code:
        graph = eliminate_dead_code(graph, preserve_signals, stats)
    stats.nodes_after = len(graph)
    return graph, stats
