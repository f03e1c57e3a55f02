"""The Register Update Map (RUM) tensor of Cascade 2 (Appendix C).

"For each register, RUM specifies the partition where it is updated and
the partitions where it is read.  At the end of each cycle, this map is
used to propagate updated register values across the LI tensors of the
reading partitions."

The RUM here is a fibertree over ranks ``(C_w, R, C_r)``: writer partition
-> register index -> reader partitions, with mask payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..tensor.tensor import Tensor
from .partition import PartitionResult


@dataclass
class RegisterUpdateMap:
    """Writer/reader relationships for every register."""

    #: register name -> writer partition index.
    writer: Dict[str, int]
    #: register name -> sorted reader partition indices (excluding writer).
    readers: Dict[str, List[int]]
    #: stable register ordering used for tensor coordinates.
    register_order: List[str]
    num_partitions: int

    def to_tensor(self) -> Tensor:
        """The RUM as a mask tensor over ranks (cw, r, cr)."""
        tensor = Tensor(
            ("cw", "r", "cr"),
            [self.num_partitions, len(self.register_order), self.num_partitions],
        )
        index_of = {name: i for i, name in enumerate(self.register_order)}
        for name, writer in self.writer.items():
            for reader in self.readers.get(name, []):
                tensor.set((writer, index_of[name], reader), 1)
        return tensor

    @property
    def total_transfers_per_cycle(self) -> int:
        """Values moved by the synchronisation step each cycle."""
        return sum(len(r) for r in self.readers.values())

    # ------------------------------------------------------------------
    # Batched exchange support (repro.shard)
    # ------------------------------------------------------------------
    def routes(self) -> List[Tuple[str, int, Tuple[int, ...]]]:
        """The RUM flattened to a stable exchange schedule.

        One ``(register, writer, readers)`` triple per register that
        crosses a partition boundary; iterating it is one full ``LI[c+1] =
        LI[c,I] . RUM`` contraction, independent of how wide the lane rank
        is (scalar pokes or B-lane row exchanges).
        """
        return [
            (name, self.writer[name], tuple(self.readers[name]))
            for name in sorted(self.readers)
        ]


def build_rum(result: PartitionResult) -> RegisterUpdateMap:
    """Derive the RUM from a partitioning result."""
    writer: Dict[str, int] = {}
    readers: Dict[str, List[int]] = {}
    for partition in result.partitions:
        for name in partition.owned_registers:
            writer[name] = partition.index
    for partition in result.partitions:
        for name in partition.external_registers:
            readers.setdefault(name, []).append(partition.index)
    for name in readers:
        readers[name].sort()
    order = sorted(writer)
    return RegisterUpdateMap(
        writer=writer,
        readers=readers,
        register_order=order,
        num_partitions=len(result.partitions),
    )
