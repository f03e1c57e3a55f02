"""FIRRTL primitive operations: width rules and bit-accurate semantics.

The paper's compiler supports "all FIRRTL primitive operations" in the
``OIM``'s ``N`` rank (Section 6.1).  This module defines those operations for
the UInt subset of FIRRTL that our frontend accepts: each op carries a width
rule (per the FIRRTL specification) and an evaluator over Python ints that
masks results to the computed width.

Values are unsigned integers.  Operations with signed semantics (``sub``,
``neg``) wrap in two's complement at the result width, matching hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple


def mask(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits (two's complement wrap)."""
    if width <= 0:
        return 0
    return value & ((1 << width) - 1)


def to_signed(value: int, width: int) -> int:
    """Reinterpret a ``width``-bit unsigned value as two's complement."""
    if width <= 0:
        return 0
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


@dataclass(frozen=True)
class PrimOp:
    """One FIRRTL primitive operation.

    ``num_args`` is the number of expression operands and ``num_params`` the
    number of static integer parameters (e.g. ``bits(x, hi, lo)`` has one
    argument and two parameters).
    """

    name: str
    num_args: int
    num_params: int
    #: (arg_widths, params) -> result width
    width_rule: Callable[[Sequence[int], Sequence[int]], int]
    #: (arg_values, arg_widths, params, result_width) -> result value
    evaluate: Callable[[Sequence[int], Sequence[int], Sequence[int], int], int]
    #: True when the op is commutative *and* associative, i.e. reducible in
    #: any order.  Non-commutative reducible ops (sub) still reduce but rely
    #: on the O-rank ordering (Section 4.1).
    commutative: bool = False

    @property
    def arity(self) -> int:
        return self.num_args


def _binary(fn: Callable[[int, int], int]) -> Callable:
    def evaluate(args, widths, params, out_width):
        return mask(fn(args[0], args[1]), out_width)

    return evaluate


def _w_maxp1(widths, params):
    return max(widths) + 1


def _w_max(widths, params):
    return max(widths)


def _w_one(widths, params):
    return 1


def _div(a: int, b: int) -> int:
    # FIRRTL leaves division by zero undefined; we choose 0 like Verilator's
    # x-propagation-free two-state semantics.
    return a // b if b != 0 else 0


def _rem(a: int, b: int) -> int:
    return a % b if b != 0 else 0


def _dshl_width(widths, params):
    # FIRRTL: w(a) + 2^w(b) - 1, clamped to keep toy designs reasonable.
    return widths[0] + min((1 << widths[1]) - 1, 64)


def _shift_left(value: int, amount: int, out_width: int) -> int:
    # A shift at or past the output width leaves nothing in-width; say so
    # before Python materialises a 2**amount-bit integer for the mask.
    return mask(value << amount, out_width) if amount < out_width else 0


PRIM_OPS: dict[str, PrimOp] = {}


def _register(op: PrimOp) -> PrimOp:
    PRIM_OPS[op.name] = op
    return op


ADD = _register(PrimOp("add", 2, 0, _w_maxp1, _binary(lambda a, b: a + b), commutative=True))
SUB = _register(PrimOp("sub", 2, 0, _w_maxp1, _binary(lambda a, b: a - b)))
MUL = _register(PrimOp("mul", 2, 0, lambda w, p: w[0] + w[1], _binary(lambda a, b: a * b), commutative=True))
DIV = _register(PrimOp("div", 2, 0, lambda w, p: w[0], _binary(_div)))
REM = _register(PrimOp("rem", 2, 0, lambda w, p: min(w[0], w[1]), _binary(_rem)))

LT = _register(PrimOp("lt", 2, 0, _w_one, _binary(lambda a, b: int(a < b))))
LEQ = _register(PrimOp("leq", 2, 0, _w_one, _binary(lambda a, b: int(a <= b))))
GT = _register(PrimOp("gt", 2, 0, _w_one, _binary(lambda a, b: int(a > b))))
GEQ = _register(PrimOp("geq", 2, 0, _w_one, _binary(lambda a, b: int(a >= b))))
EQ = _register(PrimOp("eq", 2, 0, _w_one, _binary(lambda a, b: int(a == b)), commutative=True))
NEQ = _register(PrimOp("neq", 2, 0, _w_one, _binary(lambda a, b: int(a != b)), commutative=True))

AND = _register(PrimOp("and", 2, 0, _w_max, _binary(lambda a, b: a & b), commutative=True))
OR = _register(PrimOp("or", 2, 0, _w_max, _binary(lambda a, b: a | b), commutative=True))
XOR = _register(PrimOp("xor", 2, 0, _w_max, _binary(lambda a, b: a ^ b), commutative=True))

CAT = _register(
    PrimOp(
        "cat",
        2,
        0,
        lambda w, p: w[0] + w[1],
        lambda args, widths, params, ow: mask((args[0] << widths[1]) | args[1], ow),
    )
)

DSHL = _register(
    PrimOp(
        "dshl",
        2,
        0,
        _dshl_width,
        lambda args, widths, params, ow: _shift_left(args[0], args[1], ow),
    )
)
DSHR = _register(
    PrimOp(
        "dshr",
        2,
        0,
        lambda w, p: w[0],
        lambda args, widths, params, ow: mask(args[0] >> args[1], ow),
    )
)

NOT = _register(
    PrimOp(
        "not",
        1,
        0,
        _w_max,
        lambda args, widths, params, ow: mask(~args[0], ow),
    )
)
NEG = _register(
    PrimOp(
        "neg",
        1,
        0,
        _w_maxp1,
        lambda args, widths, params, ow: mask(-args[0], ow),
    )
)
CVT = _register(
    PrimOp(
        "cvt",
        1,
        0,
        lambda w, p: w[0] + 1,
        lambda args, widths, params, ow: mask(args[0], ow),
    )
)
ANDR = _register(
    PrimOp(
        "andr",
        1,
        0,
        _w_one,
        lambda args, widths, params, ow: int(args[0] == mask(-1, widths[0])),
    )
)
ORR = _register(
    PrimOp(
        "orr",
        1,
        0,
        _w_one,
        lambda args, widths, params, ow: int(args[0] != 0),
    )
)
XORR = _register(
    PrimOp(
        "xorr",
        1,
        0,
        _w_one,
        lambda args, widths, params, ow: bin(args[0]).count("1") & 1,
    )
)
AS_UINT = _register(
    PrimOp(
        "asUInt",
        1,
        0,
        _w_max,
        lambda args, widths, params, ow: mask(args[0], ow),
    )
)
AS_SINT = _register(
    PrimOp(
        "asSInt",
        1,
        0,
        _w_max,
        lambda args, widths, params, ow: mask(args[0], ow),
    )
)

PAD = _register(
    PrimOp(
        "pad",
        1,
        1,
        lambda w, p: max(w[0], p[0]),
        lambda args, widths, params, ow: mask(args[0], ow),
    )
)
SHL = _register(
    PrimOp(
        "shl",
        1,
        1,
        lambda w, p: w[0] + p[0],
        lambda args, widths, params, ow: _shift_left(args[0], params[0], ow),
    )
)
SHR = _register(
    PrimOp(
        "shr",
        1,
        1,
        lambda w, p: max(w[0] - p[0], 1),
        lambda args, widths, params, ow: mask(args[0] >> params[0], ow),
    )
)
HEAD = _register(
    PrimOp(
        "head",
        1,
        1,
        lambda w, p: p[0],
        lambda args, widths, params, ow: mask(args[0] >> (widths[0] - params[0]), ow),
    )
)
TAIL = _register(
    PrimOp(
        "tail",
        1,
        1,
        lambda w, p: max(w[0] - p[0], 1),
        lambda args, widths, params, ow: mask(args[0], ow),
    )
)
BITS = _register(
    PrimOp(
        "bits",
        1,
        2,
        lambda w, p: p[0] - p[1] + 1,
        lambda args, widths, params, ow: mask(args[0] >> params[1], ow),
    )
)


def get_op(name: str) -> PrimOp:
    try:
        return PRIM_OPS[name]
    except KeyError:
        raise KeyError(f"unknown FIRRTL primitive operation {name!r}") from None


def op_names() -> Tuple[str, ...]:
    return tuple(sorted(PRIM_OPS))
