"""The op table: every dataflow operation's meaning, written once.

Every dataflow-graph operation name maps to one :class:`OpSemantics` row:
its arity, its *class* in the paper's taxonomy (Section 4.1), whether it is
commutative, whether its result must be fit to the output width, and its
*meaning* -- one expression over the width-aware :data:`PRIMITIVES`.  No
other module knows what ``dshl`` means.  Each way of running an op is a
*target* that implements the primitives and nothing per-op:

* Python ints -- :data:`INT`, below.  ``get_semantics(name)(args, widths,
  ow)`` is the row bound to it (constant folding, the scalar kernels, the
  pure-Python batch fallback);
* NumPy lane vectors -- :func:`repro.batch.backend.numpy_target`: uint64
  rows, and layer-blocked ``(k, B)`` groups with ``(k, 1)`` width
  columns;
* NumPy split limbs -- :func:`repro.batch.vecsem.limb_target`;
* source text -- :class:`Dialect`, below: a target whose primitives spell
  expressions, in two dialects -- Python (:mod:`repro.kernels.expr`) and
  C (:mod:`repro.lower.cbackend`).

:func:`bind_table` resolves a target once, when a table is built; nothing
dispatches on the target per call.  ``firrtl/primops.py`` keeps its own
evaluators on purpose: the reference simulator is the oracle every target
here is tested against (``tests/test_op_conformance.py``).

Classes:

* ``unary``   -- one input; evaluated by the map compute operator
  ``op_u[n]`` (Einsum 12);
* ``reduce``  -- two inputs combined pairwise by the reduce compute operator
  ``op_r[n]`` (Einsum 9); order matters for non-commutative ops, which is
  what the ``O`` rank encodes;
* ``select``  -- three or more inputs that must all be gathered before any
  output can be produced (``mux``, fused chains, ``bits``); evaluated by the
  populate coordinate operator ``op_s[n]`` (Einsum 13).

FIRRTL static parameters are passed as constant operands, so arity is a
function of the operation name alone -- the invariant the optimised OIM
format exploits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Dict, List, Optional, Sequence

from ..firrtl.primops import mask

UNARY = "unary"
REDUCE = "reduce"
SELECT = "select"

#: Evaluator signature: (operand values, operand widths, output width).
Evaluator = Callable[[Sequence[object], Sequence[int], int], object]

# ----------------------------------------------------------------------
# Primitives and targets
# ----------------------------------------------------------------------
#: What a target implements.  Operands ``x y s n c t f`` are values of the
#: target's kind (ints, lane vectors, limb matrices, expression strings);
#: ``w*`` are operand widths and ``ow`` the output width, passed wherever
#: some target needs them to size or guard its result:
#:
#: ``add(x, y, ow)  sub(x, y, ow)  mul(x, y, wx, wy, ow)``;
#: ``div(x, y, wx, wy)  rem(x, y, wx, wy)`` -- a zero divisor yields 0;
#: ``compare[rel](x, y)`` -- 0/1, ``rel`` a key of :data:`RELATIONS`;
#: ``bitwise[sym](x, y)`` -- ``sym`` a key of :data:`BITWISE`;
#: ``invert(x, ow)  neg(x, ow)``;
#: ``shl(x, s, ow)`` -- ``x << s``, 0 once ``s >= ow`` (nothing left in-width);
#: ``shr(x, s, w, ow)`` -- ``x >> s``, 0 once ``s >= w``;
#: ``head(x, n, w, ow)`` -- the top ``n`` of ``w`` bits (all of them if ``n >= w``);
#: ``cat(x, y, wy, ow)`` -- ``x`` above the ``wy`` bits of ``y``;
#: ``select(c, t, f)`` -- ``t`` where ``c`` is non-zero, else ``f``;
#: ``truth(x)  all_ones(x, w)  parity(x)`` -- the 0/1 reductions;
#: ``fit(x, ow)`` -- truncate to ``ow`` bits (two's complement wrap).
PRIMITIVES = (
    "add", "sub", "mul", "div", "rem", "compare", "bitwise", "invert", "neg",
    "shl", "shr", "head", "cat", "select", "truth", "all_ones", "parity", "fit",
)

RELATIONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}
BITWISE = {"&": operator.and_, "|": operator.or_, "^": operator.xor}


class Target:
    """One way of running the table: an implementation of every
    primitive, and nothing per-op."""

    __slots__ = PRIMITIVES

    def __init__(self, **primitives) -> None:
        if primitives.keys() != set(PRIMITIVES):
            raise TypeError(
                f"a target implements exactly {PRIMITIVES}; got {sorted(primitives)}"
            )
        for name, implementation in primitives.items():
            setattr(self, name, implementation)


#: Primitives that are the host language's own operators wherever values
#: are Python ints or NumPy arrays (wrap-around, if any, is removed by
#: ``fit``); the widths only matter to targets that size their results.
NATIVE = {
    "add": lambda x, y, ow: x + y,
    "sub": lambda x, y, ow: x - y,
    "mul": lambda x, y, *_widths: x * y,
    "invert": lambda x, ow: ~x,
    "neg": lambda x, ow: -x,
    "cat": lambda x, y, wy, ow: (x << wy) | y,
    "bitwise": BITWISE,
}

#: The Python-int target (unbounded ints, one value per operand).
INT = Target(
    **NATIVE,
    div=lambda x, y, *_widths: x // y if y else 0,
    rem=lambda x, y, *_widths: x % y if y else 0,
    compare={
        rel: (lambda x, y, holds=holds: int(holds(x, y)))
        for rel, holds in RELATIONS.items()
    },
    # Guarded rather than mask(x << s, ow): a 64-bit shift operand would
    # materialise a 2**64-bit integer first.
    shl=lambda x, s, ow: x << s if s < ow else 0,
    shr=lambda x, s, w, ow: x >> s,
    head=lambda x, n, w, ow: x >> max(w - n, 0),
    select=lambda c, t, f: t if c else f,
    truth=lambda x: int(x != 0),
    all_ones=lambda x, w: int(x == mask(-1, w)),
    parity=lambda x: bin(x).count("1") & 1,
    fit=mask,
)


def _bind(meaning: Callable, masked: bool, target) -> Evaluator:
    if not masked:
        return partial(meaning, target)
    fit = target.fit
    return lambda a, w, ow: fit(meaning(target, a, w, ow), ow)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpSemantics:
    name: str
    arity: int
    klass: str
    #: ``meaning(P, args, widths, out_width)`` over a target's primitives.
    meaning: Callable
    #: The meaning can exceed ``out_width`` bits and must be ``fit`` to it;
    #: the others fit whenever their operands do, and the vector targets
    #: and the dialects skip the mask for them.
    masked: bool
    commutative: bool
    #: The meaning bound to :data:`INT`, and always fit: the optimiser
    #: folds constants with it and the fuzzer's injected-bug arm narrows
    #: a slot width under it, so it truncates every result to the width
    #: it is told, whatever the operands.
    fn: Evaluator

    def __call__(self, args: Sequence[int], widths: Sequence[int], out_width: int) -> int:
        return self.fn(args, widths, out_width)


_TABLE: Dict[str, OpSemantics] = {}


def _define(name: str, arity: int, klass: str, meaning: Callable,
            masked: bool = False, commutative: bool = False) -> None:
    _TABLE[name] = OpSemantics(
        name, arity, klass, meaning, masked, commutative, _bind(meaning, True, INT)
    )


def _copy(P, a, w, ow):
    return a[0]


def _shift_left(P, a, w, ow):
    return P.shl(a[0], a[1], ow)


def _shift_right(P, a, w, ow):
    return P.shr(a[0], a[1], w[0], ow)


def _muxchain(P, a, w, ow):
    """Fused mux chain ``[s1, v1, s2, v2, ..., default]``: the first set
    selector wins, so fold from the innermost out."""
    result = a[-1]
    for position in range(len(a) - 3, -1, -2):
        result = P.select(a[position], a[position + 1], result)
    return result


# -- reduce-class (binary) ops -----------------------------------------
_define("add", 2, REDUCE, lambda P, a, w, ow: P.add(a[0], a[1], ow), masked=True, commutative=True)
_define("sub", 2, REDUCE, lambda P, a, w, ow: P.sub(a[0], a[1], ow), masked=True)
_define("mul", 2, REDUCE, lambda P, a, w, ow: P.mul(a[0], a[1], w[0], w[1], ow), masked=True, commutative=True)
_define("div", 2, REDUCE, lambda P, a, w, ow: P.div(a[0], a[1], w[0], w[1]), masked=True)
_define("rem", 2, REDUCE, lambda P, a, w, ow: P.rem(a[0], a[1], w[0], w[1]), masked=True)
for _name, _rel in (("lt", "<"), ("leq", "<="), ("gt", ">"), ("geq", ">="), ("eq", "=="), ("neq", "!=")):
    _define(
        _name, 2, REDUCE,
        lambda P, a, w, ow, rel=_rel: P.compare[rel](a[0], a[1]),
        commutative=_rel in ("==", "!="),
    )
_define("cat", 2, REDUCE, lambda P, a, w, ow: P.cat(a[0], a[1], w[1], ow), masked=True)
_define("dshl", 2, REDUCE, _shift_left, masked=True)
_define("dshr", 2, REDUCE, _shift_right)
# Parameterised unary FIRRTL ops become binary with a constant operand.
_define("shl", 2, REDUCE, _shift_left, masked=True)
_define("shr", 2, REDUCE, _shift_right)
_define("pad", 2, REDUCE, _copy)
_define("head", 2, REDUCE, lambda P, a, w, ow: P.head(a[0], a[1], w[0], ow))
_define("tail", 2, REDUCE, _copy, masked=True)

# -- unary ops ------------------------------------------------------------
_define("not", 1, UNARY, lambda P, a, w, ow: P.invert(a[0], ow), masked=True)
_define("neg", 1, UNARY, lambda P, a, w, ow: P.neg(a[0], ow), masked=True)
_define("cvt", 1, UNARY, _copy, masked=True)
_define("andr", 1, UNARY, lambda P, a, w, ow: P.all_ones(a[0], w[0]))
_define("orr", 1, UNARY, lambda P, a, w, ow: P.truth(a[0]))
_define("xorr", 1, UNARY, lambda P, a, w, ow: P.parity(a[0]))
_define("asUInt", 1, UNARY, _copy)
_define("asSInt", 1, UNARY, _copy)
#: Identity value-propagation op (Section 4.2); inserted conceptually during
#: levelisation and elided by coordinate assignment (Section 4.3).
_define("ident", 1, UNARY, _copy)

# -- select (gather-all) ops ---------------------------------------------
_define("mux", 3, SELECT, lambda P, a, w, ow: P.select(a[0], a[1], a[2]))
# bits(value, hi, lo): the parameters arrive as constant operands.
_define("bits", 3, SELECT, lambda P, a, w, ow: P.shr(a[0], a[2], w[0], ow), masked=True)

#: Largest fused chain length; longer chains are fused in segments.
MAX_CHAIN = 8

# -- bitwise ops and the fused chains (folds of the primitives) ----------
for _name, _sym in (("and", "&"), ("or", "|"), ("xor", "^")):
    _define(
        _name, 2, REDUCE,
        lambda P, a, w, ow, sym=_sym: P.bitwise[sym](a[0], a[1]),
        commutative=True,
    )
    for _k in range(2, MAX_CHAIN + 1):
        _define(
            f"{_name}chain{_k}", _k, SELECT,
            lambda P, a, w, ow, sym=_sym: reduce(P.bitwise[sym], a),
        )
for _k in range(2, MAX_CHAIN + 1):
    _define(f"muxchain{_k}", 2 * _k + 1, SELECT, _muxchain)


def get_semantics(name: str) -> OpSemantics:
    try:
        return _TABLE[name]
    except KeyError:
        raise KeyError(f"unknown dataflow operation {name!r}") from None


def has_semantics(name: str) -> bool:
    return name in _TABLE


def all_op_names() -> List[str]:
    return sorted(_TABLE)


def evaluate_node(op: str, args: Sequence[int], widths: Sequence[int], out_width: int) -> int:
    return get_semantics(op)(args, widths, out_width)


def bind_table(target, fit_all: bool = False) -> Dict[str, Evaluator]:
    """Every row bound to one target: ``name -> fn(args, widths, out_width)``.

    ``fit_all`` fits every result, not just the masked rows', for targets
    whose values carry a shape as well as a magnitude (split limbs).
    """
    return {
        name: _bind(row.meaning, fit_all or row.masked, target)
        for name, row in _TABLE.items()
    }


# ----------------------------------------------------------------------
# Source rendering
# ----------------------------------------------------------------------
class Dialect:
    """The source renderer: a target whose values are expression strings.

    The base class holds the spellings shared by the dialects that
    subclass it -- :class:`repro.kernels.expr.PythonDialect` and
    :class:`repro.lower.cbackend.CDialect` -- with guarded primitives
    spelled as calls to ``prefix``-named helpers; each subclass overrides
    the spellings that differ.  Constant operands arrive as literals, so
    shift amounts fold at render time wherever the dialect's word size
    makes an unguarded shift unsafe.
    """

    #: Integer-literal suffix, and the prefix of guarded-helper names.
    suffix = ""
    prefix = "_"
    #: Native word size: shifting by it or more is undefined.
    WORD = 64

    def __init__(self) -> None:
        self.compare = {rel: partial(self.relation, rel) for rel in RELATIONS}
        self.bitwise = {sym: partial(self.infix, sym) for sym in BITWISE}

    def render(
        self, op: str, args: Sequence[str], widths: Sequence[int], out_width: int
    ) -> str:
        """One operation as an expression over the ``args`` strings."""
        row = get_semantics(op)
        text = row.meaning(self, list(args), widths, out_width)
        return self.fit(text, out_width) if row.masked else text

    def const(self, text: str) -> Optional[int]:
        """The value of an inlined constant operand; None if live."""
        try:
            return int(text.removesuffix(self.suffix), 0)
        except ValueError:
            return None

    def literal(self, value: int) -> str:
        return f"{hex(value)}{self.suffix}"

    def call(self, helper: str, *args: object) -> str:
        return f"{self.prefix}{helper}({', '.join(map(str, args))})"

    @staticmethod
    def infix(symbol: str, x: str, y: str) -> str:
        return f"{x} {symbol} {y}"

    def zero(self, x: str) -> str:
        return f"{x} & 0"  # keeps the lane shape

    # -- the primitives ---------------------------------------------------
    def add(self, x, y, ow):
        return self.infix("+", x, y)

    def sub(self, x, y, ow):
        return self.infix("-", x, y)

    def mul(self, x, y, *_widths):
        return self.infix("*", x, y)

    def div(self, x, y, *_widths):
        return self.call("div", x, y)

    def rem(self, x, y, *_widths):
        return self.call("rem", x, y)

    def relation(self, rel, x, y):
        return f"({x} {rel} {y})"

    def invert(self, x, ow):
        return f"~{x}"

    def neg(self, x, ow):
        return f"-{x}"

    def shl(self, x, s, ow):
        shift = self.const(s)
        if shift is None:
            return self.call("dshl", x, s, ow)
        return f"{x} << {shift}" if shift < min(ow, self.WORD) else self.zero(x)

    def shr(self, x, s, w, *_ow):
        shift = self.const(s)
        if shift is None:
            return self.call("dshr", x, s, w)
        return f"({x} >> {shift})" if shift < min(w, self.WORD) else self.zero(x)

    def head(self, x, n, w, *_ow):
        keep = self.const(n)
        if keep is None:
            return self.call("head", x, n, w)
        return self.shr(x, str(w - keep), w) if keep < w else x

    def cat(self, x, y, wy, ow):
        # A shift by the whole word only arises with a zero-width lhs.
        return y if wy >= self.WORD else f"({x} << {wy}) | {y}"

    def select(self, c, t, f):
        return self.call("where", c, t, f)

    def truth(self, x):
        return self.relation("!=", x, "0")

    def all_ones(self, x, w):
        return self.relation("==", x, self.literal(mask(-1, w)))

    def parity(self, x):
        return self.call("pop", x)

    def fit(self, x, ow):
        return f"({x}) & {self.literal(mask(-1, ow))}"
