"""The lowered OIM program IR shared by every kernel.

:class:`OimProgram` is the single product of the lowering pipeline: the
dependence-levelled operation schedule in a flat, typed, picklable form,
plus every table an executor needs (slot widths, constant preloads,
input/output slots, register commits, leaf slots, the slot-to-consumer
transpose) and a canonical SHA-256 fingerprint that keys derived
artifacts (SU codegen statements, compiled shared objects).

The row shape is the tuple the walks consume --
``(n, s, operands, widths, out_width)`` with ``n`` the opcode index --
so every executor consumes it without adaptation, and the rows
stay picklable for the :mod:`repro.serve` artifact cache.  Traversal
order is the paper's RU order: rank I outermost, rank S concordant
within each layer, operands in O order; this is exactly the order of
:class:`~repro.oim.builder.OimBundle.layers`, which is what
:func:`lower_program` flattens.

The concrete paper formats of Figure 12 remain in
:mod:`repro.oim.formats`; :meth:`OimProgram.flat_ranks` and
:meth:`OimProgram.swizzled_ranks` reproduce their rank arrays so the
format-walking scalar kernels (RU/OU/NU/PSU) are executors over the same
program rather than private re-lowerings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..oim.builder import OimBundle

#: One program row: ``(n, s, operands, widths, out_width)`` with ``n``
#: the opcode index (rebound to live op-table entries by executors).
ProgramRow = Tuple[int, int, Tuple[int, ...], Tuple[int, ...], int]


@dataclass(frozen=True)
class FlatRanks:
    """The optimized-format rank arrays (Figure 12b), program-derived."""

    i_payloads: Tuple[int, ...]
    s_coords: Tuple[int, ...]
    n_coords: Tuple[int, ...]
    r_coords: Tuple[int, ...]


@dataclass(frozen=True)
class SwizzledRanks:
    """The swizzled-format rank arrays (Figure 12c), program-derived."""

    n_payloads: Tuple[int, ...]
    s_coords: Tuple[int, ...]
    r_coords: Tuple[int, ...]


@dataclass
class OimProgram:
    """One design's lowered OIM schedule plus executor metadata."""

    design_name: str
    #: Opcode vocabulary: ``op_names[n]`` / ``op_arities[n]`` describe
    #: opcode ``n`` without needing a live :class:`OpTable` (semantics
    #: are still resolved through the bundle's table at executor build).
    op_names: Tuple[str, ...]
    op_arities: Tuple[int, ...]
    #: Dependence-levelled rows, sorted by ``s`` within each layer.
    layers: List[List[ProgramRow]]
    num_slots: int
    slot_width: Tuple[int, ...]
    const_slots: Tuple[Tuple[int, int], ...]
    input_slots: Dict[str, int]
    output_slots: Dict[str, int]
    register_commits: Tuple[Tuple[int, int], ...]
    #: The walk's sources (input + register state slots, sorted): the
    #: only slots whose values change *between* combinational passes.
    leaf_slots: Tuple[int, ...]
    #: ``consumers[slot]`` -> ``(layer, record_index)`` pairs reading it
    #: (the transpose of the R rank; drives the activity cascade).
    consumers: Tuple[Tuple[Tuple[int, int], ...], ...]
    max_arity: int
    _fingerprint: Optional[str] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_records(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def num_opcodes(self) -> int:
        return len(self.op_names)

    def records(self) -> Iterator[ProgramRow]:
        """Every row in execution order (layers flattened)."""
        for layer in self.layers:
            yield from layer

    def const_values(self) -> Dict[int, int]:
        return dict(self.const_slots)

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Canonical SHA-256 over everything that shapes execution.

        Stable across processes and hosts (plain ints/strings/tuples
        only); keys every artifact derived from the program -- codegen
        statement lists, compiled shared objects -- so "same fingerprint"
        means "same generated code".
        """
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            for tag, part in (
                (b"\x00", self.design_name),
                (b"\x01", self.op_names),
                (b"\x02", self.op_arities),
                (b"\x03", self.layers),
                (b"\x04", self.slot_width),
                (b"\x05", self.const_slots),
                (b"\x06", tuple(sorted(self.input_slots.items()))),
                (b"\x07", tuple(sorted(self.output_slots.items()))),
                (b"\x08", self.register_commits),
                (b"\x09", (self.num_slots, self.max_arity)),
            ):
                hasher.update(tag)
                hasher.update(repr(part).encode())
            self._fingerprint = hasher.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # Derived paper-format views (Figure 12), so the format-walking
    # kernels source their arrays from the program too.
    # ------------------------------------------------------------------
    def flat_ranks(self) -> FlatRanks:
        """Rank arrays in the optimized ``[I,S,N,O,R]`` order: identical
        to ``lower_oim_fast(bundle, "optimized")``'s coords/payloads."""
        i_payloads: List[int] = []
        s_coords: List[int] = []
        n_coords: List[int] = []
        r_coords: List[int] = []
        for layer in self.layers:
            i_payloads.append(len(layer))
            for n, s, operands, _widths, _ow in layer:
                s_coords.append(s)
                n_coords.append(n)
                r_coords.extend(operands)
        return FlatRanks(
            tuple(i_payloads), tuple(s_coords), tuple(n_coords), tuple(r_coords)
        )

    def swizzled_ranks(self) -> SwizzledRanks:
        """Rank arrays in the swizzled ``[I,N,S,O,R]`` order: identical
        to ``lower_oim_fast(bundle, "swizzled")``'s coords/payloads (per
        layer, per opcode ``0..num_opcodes-1``, records in layer order).
        """
        n_payloads: List[int] = []
        s_coords: List[int] = []
        r_coords: List[int] = []
        num_codes = self.num_opcodes
        for layer in self.layers:
            by_code: Dict[int, List[ProgramRow]] = {}
            for row in layer:
                by_code.setdefault(row[0], []).append(row)
            for code in range(num_codes):
                rows = by_code.get(code, ())
                n_payloads.append(len(rows))
                for _n, s, operands, _widths, _ow in rows:
                    s_coords.append(s)
                    r_coords.extend(operands)
        return SwizzledRanks(
            tuple(n_payloads), tuple(s_coords), tuple(r_coords)
        )


# ----------------------------------------------------------------------
def lower_program(bundle: OimBundle) -> OimProgram:
    """Lower ``bundle`` into the shared :class:`OimProgram`.

    One sweep over ``bundle.layers`` builds the rows (already in RU
    order: layers are sorted by ``s``, operands are in O order) and the
    consumer transpose; everything else is copied into picklable tuples.
    """
    width = list(bundle.slot_width)
    layers: List[List[ProgramRow]] = []
    for layer in bundle.layers:
        rows: List[ProgramRow] = []
        for record in layer:
            operands = tuple(record.operands)
            rows.append((
                record.n,
                record.s,
                operands,
                tuple(width[r] for r in operands),
                width[record.s],
            ))
        layers.append(rows)

    consumer_map: List[List[Tuple[int, int]]] = [
        [] for _ in range(bundle.num_slots)
    ]
    for layer_index, layer in enumerate(layers):
        for record_index, (_n, _s, operands, _w, _ow) in enumerate(layer):
            for r in set(operands):
                consumer_map[r].append((layer_index, record_index))

    leaves = set(bundle.input_slots.values())
    leaves.update(state for state, _next in bundle.register_commits)

    return OimProgram(
        design_name=bundle.design_name,
        op_names=tuple(entry.name for entry in bundle.op_table),
        op_arities=tuple(entry.arity for entry in bundle.op_table),
        layers=layers,
        num_slots=bundle.num_slots,
        slot_width=tuple(width),
        const_slots=tuple((slot, value) for slot, value in bundle.const_slots),
        input_slots=dict(bundle.input_slots),
        output_slots=dict(bundle.output_slots),
        register_commits=tuple(
            (state, nxt) for state, nxt in bundle.register_commits
        ),
        leaf_slots=tuple(sorted(leaves)),
        consumers=tuple(tuple(pairs) for pairs in consumer_map),
        max_arity=bundle.max_arity,
    )


def cached_program(bundle: OimBundle) -> OimProgram:
    """:func:`lower_program` through the :mod:`repro.serve` artifact
    cache (kind ``program``), keyed by the bundle fingerprint.

    The program is additionally memoised on the bundle instance: every
    kernel family lowers through here, so one design's construction asks
    for the same program several times per process (walk + activity +
    codegen + compiled), and bundles are immutable once built.
    """
    program = getattr(bundle, "_repro_program", None)
    if program is not None:
        return program
    from ..serve import artifacts

    if artifacts.get_cache() is None:
        program = lower_program(bundle)
    else:
        digest = artifacts.bundle_fingerprint(bundle, stage="program")
        program = artifacts.cache_through(
            "program", digest, lambda: lower_program(bundle)
        )
    try:
        bundle._repro_program = program
    except AttributeError:  # slotted/frozen bundles: recompute per call
        pass
    return program
