"""Width classification and the blocked same-op limb plan.

One program, one classification: :func:`is_narrow` decides which rows
fit the single-``uint64``-row evaluators, and :func:`limb_plan` folds it
into the declarative ``u64xN`` schedule, grouping a layer's same-op
narrow rows into blocks.  The batched walk, the activity kernel and the
SU codegen all consult the same predicate, so the narrow/wide split
cannot drift between executors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .program import OimProgram, ProgramRow

#: Widths at or below this fit one uint64 plane row.
U64_MAX_WIDTH = 64


def is_narrow(widths, out_width) -> bool:
    """True when an op never sees a >64-bit operand or result."""
    return max((out_width, *widths)) <= U64_MAX_WIDTH


PlanStep = Tuple[str, object, List[ProgramRow]]


def limb_plan(program: OimProgram) -> List[PlanStep]:
    """The ``u64xN`` schedule in declarative, picklable form.

    Per layer, in execution order: ``("block", op_name, rows)`` for each
    layer-blocked narrow group, then ``("narrow", None, [row])`` /
    ``("wide", None, [row])`` per remaining record.  Closures are
    rebuilt from this plan at kernel construction (closures themselves
    do not pickle), so the grouping/classification sweep is what the
    artifact cache saves -- as part of the cached program's derived
    state.
    """
    op_names = program.op_names
    plan: List[PlanStep] = []
    for layer in program.layers:
        groups: Dict[str, List[ProgramRow]] = {}
        leftovers: List[ProgramRow] = []
        for row in layer:
            n, _s, _operands, widths, out_width = row
            if is_narrow(widths, out_width):
                groups.setdefault(op_names[n], []).append(row)
            else:
                leftovers.append(row)
        for name, group in groups.items():
            if len(group) == 1:
                leftovers.extend(group)
            else:
                plan.append(("block", name, group))
        for row in leftovers:
            _n, _s, _operands, widths, out_width = row
            kind = "narrow" if is_narrow(widths, out_width) else "wide"
            plan.append((kind, None, [row]))
    return plan
