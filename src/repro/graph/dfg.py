"""The RTL dataflow graph (Figure 1, middle).

Nodes represent primitive operations; edges represent data flow.  Leaves are
top-level inputs, register state reads, and constants.  Static parameters of
FIRRTL primops (e.g. the ``hi``/``lo`` of ``bits``) are modelled as constant
operand nodes so that every operation type has a *fixed arity* -- the
property the paper's compressed OIM format relies on ("the operation type
(N) determines the number of input operands", Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Leaf node kinds (they carry values but perform no computation).
LEAF_OPS = ("input", "const", "reg")


@dataclass(frozen=True)
class DfgNode:
    """One node of the dataflow graph.

    ``op`` is a leaf kind (``input``/``const``/``reg``) or an operation name
    (a FIRRTL primop, ``mux``, or a fused op such as ``muxchain4``).
    ``operands`` are node ids in operand order -- the order the paper's
    ``O`` rank preserves for non-commutative operations.
    """

    nid: int
    op: str
    operands: Tuple[int, ...]
    width: int
    #: Constant value for ``const`` nodes.
    value: int = 0
    #: Source signal name, if this node drives a named signal.
    name: Optional[str] = None

    @property
    def is_leaf(self) -> bool:
        return self.op in LEAF_OPS

    @property
    def is_op(self) -> bool:
        return not self.is_leaf


@dataclass
class RegisterInfo:
    """Register bookkeeping: state node, next-value node, reset behaviour."""

    name: str
    width: int
    state_nid: int
    next_nid: int
    init_value: int = 0
    reset_input: Optional[str] = None
    #: Clock domain name (multi-clock support, Section 6.2).
    clock: str = "clock"


class DataflowGraph:
    """A mutable dataflow graph with interned (hash-consed) nodes.

    Structural interning gives common-subexpression elimination for free
    during construction; optimisation passes rebuild graphs through the same
    interning constructor.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self.nodes: List[DfgNode] = []
        self.inputs: Dict[str, int] = {}
        self.outputs: Dict[str, int] = {}
        self.registers: Dict[str, RegisterInfo] = {}
        self._intern: Dict[Tuple, int] = {}
        #: Named signals (for waveforms / peek); name -> nid.
        self.signal_map: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def _new_node(self, op: str, operands: Tuple[int, ...], width: int,
                  value: int = 0, name: Optional[str] = None) -> int:
        nid = len(self.nodes)
        self.nodes.append(DfgNode(nid, op, operands, width, value, name))
        return nid

    def add_input(self, name: str, width: int) -> int:
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        nid = self._new_node("input", (), width, name=name)
        self.inputs[name] = nid
        self.signal_map[name] = nid
        return nid

    def add_const(self, value: int, width: int) -> int:
        key = ("const", value, width)
        if key in self._intern:
            return self._intern[key]
        nid = self._new_node("const", (), width, value=value)
        self._intern[key] = nid
        return nid

    def add_register(self, name: str, width: int, init_value: int = 0,
                     reset_input: Optional[str] = None,
                     clock: str = "clock") -> int:
        if name in self.registers:
            raise ValueError(f"duplicate register {name!r}")
        nid = self._new_node("reg", (), width, name=name)
        self.registers[name] = RegisterInfo(
            name=name, width=width, state_nid=nid, next_nid=-1,
            init_value=init_value, reset_input=reset_input, clock=clock,
        )
        self.signal_map[name] = nid
        return nid

    def add_op(self, op: str, operands: Iterable[int], width: int,
               name: Optional[str] = None) -> int:
        operands = tuple(operands)
        for operand in operands:
            if not 0 <= operand < len(self.nodes):
                raise ValueError(f"operand {operand} is not a node id")
        key = (op, operands, width)
        if key in self._intern:
            nid = self._intern[key]
            if name is not None:
                self.signal_map[name] = nid
            return nid
        nid = self._new_node(op, operands, width, name=name)
        self._intern[key] = nid
        if name is not None:
            self.signal_map[name] = nid
        return nid

    def set_register_next(self, name: str, next_nid: int) -> None:
        self.registers[name].next_nid = next_nid

    def set_output(self, name: str, nid: int) -> None:
        self.outputs[name] = nid
        self.signal_map[name] = nid

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, nid: int) -> DfgNode:
        return self.nodes[nid]

    def __len__(self) -> int:
        return len(self.nodes)

    def op_nodes(self) -> Iterator[DfgNode]:
        return (n for n in self.nodes if n.is_op)

    @property
    def num_ops(self) -> int:
        return sum(1 for _ in self.op_nodes())

    def roots(self) -> List[int]:
        """Node ids the simulation must compute: outputs + register nexts."""
        roots = list(self.outputs.values())
        roots.extend(reg.next_nid for reg in self.registers.values())
        return roots

    def consumers(self) -> Dict[int, List[int]]:
        """Map nid -> list of consuming node ids."""
        result: Dict[int, List[int]] = {n.nid: [] for n in self.nodes}
        for node in self.nodes:
            for operand in node.operands:
                result[operand].append(node.nid)
        return result

    def op_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for node in self.op_nodes():
            histogram[node.op] = histogram.get(node.op, 0) + 1
        return histogram

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation."""
        for node in self.nodes:
            for operand in node.operands:
                if not 0 <= operand < len(self.nodes):
                    raise ValueError(f"node {node.nid} has bad operand {operand}")
                if operand >= node.nid and self.nodes[operand].is_op:
                    # Ops are appended after their operands during
                    # construction, so a forward edge to an op means a cycle.
                    raise ValueError(
                        f"node {node.nid} references later op node {operand}"
                    )
        for name, reg in self.registers.items():
            if reg.next_nid < 0:
                raise ValueError(f"register {name!r} has no next-value node")


# ----------------------------------------------------------------------
# Document form (what a shard worker receives over the wire)
# ----------------------------------------------------------------------
_REGISTER_FIELDS = ("width", "state_nid", "next_nid", "init_value",
                    "reset_input", "clock")


def graph_to_doc(graph: DataflowGraph) -> dict:
    """A JSON-able document holding everything that determines the
    graph's behaviour -- exactly what ``design_fingerprint`` hashes."""
    return {
        "name": graph.name,
        "nodes": [[n.op, list(n.operands), n.width, n.value, n.name]
                  for n in graph.nodes],
        "inputs": graph.inputs,
        "outputs": graph.outputs,
        "registers": {
            name: [getattr(reg, field) for field in _REGISTER_FIELDS]
            for name, reg in graph.registers.items()
        },
        "signals": graph.signal_map,
    }


def graph_from_doc(doc: dict) -> DataflowGraph:
    """Rebuild a graph from :func:`graph_to_doc` output.  The document
    may come from another host: a shape that is not a well-formed graph
    raises (``KeyError``/``TypeError``/``ValueError``), nothing more."""
    graph = DataflowGraph(str(doc["name"]))
    for nid, (op, operands, width, value, name) in enumerate(doc["nodes"]):
        if name is not None and not isinstance(name, str):
            raise TypeError(f"node {nid} name is not a string")
        node = DfgNode(nid, str(op), tuple(int(o) for o in operands),
                       int(width), int(value), name)
        graph.nodes.append(node)
        if node.op == "const":
            graph._intern[("const", node.value, node.width)] = nid
        elif node.is_op:
            graph._intern[(node.op, node.operands, node.width)] = nid
    count = len(graph.nodes)
    for attr, key in (("inputs", "inputs"), ("outputs", "outputs"),
                      ("signal_map", "signals")):
        table = {str(name): int(nid) for name, nid in doc[key].items()}
        if not all(0 <= nid < count for nid in table.values()):
            raise ValueError(f"graph document {key} name a missing node")
        setattr(graph, attr, table)
    for name, fields in doc["registers"].items():
        reg = RegisterInfo(str(name), **dict(zip(_REGISTER_FIELDS, fields)))
        if not (0 <= reg.state_nid < count and 0 <= reg.next_nid < count):
            raise ValueError(f"register {name!r} names a missing node")
        graph.registers[reg.name] = reg
    graph.validate()
    return graph
