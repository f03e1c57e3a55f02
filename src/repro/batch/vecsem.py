"""Lane-vectorised operation semantics for the batched walk kernel.

This is the op table of :mod:`repro.graph.opsem` bound to the NumPy
targets: every evaluator keeps the scalar signature ``fn(args, widths,
out_width)`` but consumes and produces lane *vectors* (NumPy arrays of B
lanes) instead of scalars.  The paper's map/reduce structure is preserved
-- the map compute operator now maps over lanes as well as coordinates,
and the reduce operator folds the ``O`` rank pairwise exactly as
Algorithm 3 does -- which is what makes the lane rank free: it rides
along every Einsum without changing the traversal.

:func:`make_vec_table` binds the table to the single-row target
(:func:`repro.batch.backend.numpy_target`): operands are uint64 lane
vectors, and wrap-around modulo 2**64 followed by the output-width mask
is exact for every arithmetic op once shifts are guarded.

:func:`make_limb_table` binds it to the split-limb target
(:func:`limb_target`): operands and results are ``(limbs, B)`` uint64
matrices (little-endian limb rows of the flat plane,
:class:`repro.batch.backend.LimbLayout`).  Arithmetic propagates
carries/borrows limb by limb, multiplication runs schoolbook over 32-bit
halves, division runs vectorised restoring long division (one
compare/subtract vector step per dividend bit), comparisons fold from
the most-significant limb, and shifts/cat/bits move bits across limb
rows -- all still vectorised NumPy expressions over the lane rank, so
the lane rank stays free on >64-bit slots.  Those algorithms are the
target's primitives; nothing here is per-op.

Bit-exactness of every op on every target against the FIRRTL reference
evaluators is asserted in ``tests/test_op_conformance.py``.
"""

from __future__ import annotations

from typing import Dict, List

from ..graph.opsem import BITWISE, Evaluator, Target, bind_table
from .backend import LIMB_BITS, limbs_for_width, numpy_target, popcount_parity, split_limbs


def make_vec_table(np) -> Dict[str, Evaluator]:
    """The ``op name -> lane-vector evaluator`` table over uint64 rows."""
    return bind_table(numpy_target(np))


# ----------------------------------------------------------------------
# Split-limb evaluators
# ----------------------------------------------------------------------
def make_limb_table(np) -> Dict[str, Evaluator]:
    """The ``op name -> limb-matrix evaluator`` table for operations wider
    than one limb.

    Every evaluator consumes ``(limbs, B)`` uint64 matrices (operand limb
    counts follow the operand widths) and returns a
    ``(limbs_for_width(out_width), B)`` matrix masked to ``out_width``
    -- every result is fit, since a limb matrix carries its row count as
    well as its value.  Only ops that actually see a >64-bit operand or
    result are routed here; single-limb ops stay on the single-row
    table (see :func:`repro.lower.plan.limb_plan`).
    """
    return bind_table(limb_target(np), fit_all=True)


def limb_target(np) -> Target:
    """The split-limb target: the op table's primitives over ``(limbs,
    B)`` uint64 matrices.  Results are sized from ``ow`` where a
    primitive takes it and left to ``fit`` otherwise."""
    u64 = np.uint64
    ZERO, ONE = u64(0), u64(1)
    M32 = u64(0xFFFFFFFF)
    HALF = u64(32)
    pop = popcount_parity(np)

    nl = limbs_for_width

    def ext(x, count: int):
        """Zero-extend (or truncate) a limb matrix to ``count`` rows.

        Truncation is only reached when the result is re-masked by the
        caller, so dropping already-masked high limbs is exact.
        """
        rows = x.shape[0]
        if rows == count:
            return x
        if rows > count:
            return x[:count]
        out = np.zeros((count, x.shape[1]), dtype=np.uint64)
        out[:rows] = x
        return out

    _mask_vectors: Dict[int, object] = {}

    def mask_vector(width: int, count: int):
        key = (width, count)
        cached = _mask_vectors.get(key)
        if cached is None:
            cached = np.array(
                [split_limbs((1 << max(width, 0)) - 1, count)], dtype=np.uint64
            ).reshape(count, 1)
            _mask_vectors[key] = cached
        return cached

    def m(x, width: int):
        """The slot-width mask over ``limbs_for_width(width)`` rows."""
        count = nl(width)
        x = ext(x, count)
        if width == count * LIMB_BITS:
            return x  # every representable bit is in-width: mask is a no-op
        return x & mask_vector(width, count)

    def bit(condition):
        """A (B,) bool vector as a 1-limb 0/1 matrix."""
        return condition[None, :].astype(np.uint64)

    def nonzero(x):
        """Per-lane truthiness of a limb matrix, as a (B,) bool vector."""
        flag = x[0] != ZERO
        for row in range(1, x.shape[0]):
            flag = flag | (x[row] != ZERO)
        return flag

    # -- carry / borrow arithmetic --------------------------------------
    def ladd(a, b, ow):
        count = nl(ow)
        a, b = ext(a, count), ext(b, count)
        out = np.empty_like(a)
        carry = np.zeros(a.shape[1], dtype=np.uint64)
        for i in range(count):
            partial = a[i] + b[i]
            overflow = partial < a[i]
            total = partial + carry
            out[i] = total
            carry = (overflow | (total < partial)).astype(np.uint64)
        return out

    def lsub(a, b, ow):
        count = nl(ow)
        a, b = ext(a, count), ext(b, count)
        out = np.empty_like(a)
        borrow = np.zeros(a.shape[1], dtype=np.uint64)
        for i in range(count):
            partial = a[i] - b[i]
            underflow = a[i] < b[i]
            total = partial - borrow
            out[i] = total
            borrow = (underflow | (partial < borrow)).astype(np.uint64)
        return out

    def lmul(a, b, wa: int, wb: int, ow):
        # Width-aware schoolbook over 32-bit halves: partial products are
        # only formed for half-words the operand widths can populate (the
        # common RTL mask idiom ``mul(wide, onebit)`` costs one select,
        # not a full multi-limb multiply), and every column accumulator
        # stays below 2**64, so uint64 wrap-around is never hit before
        # the explicit carry extraction.
        count = nl(ow)
        if wa == 1 or wb == 1:
            gate, value = (a, b) if wa == 1 else (b, a)
            return np.where(gate[0][None, :].astype(bool), ext(value, count), ZERO)
        a, b = ext(a, count), ext(b, count)
        halves = 2 * count
        halves_a = min(halves, max(1, (wa + 31) // 32))
        halves_b = min(halves, max(1, (wb + 31) // 32))
        a_half: List[object] = []
        b_half: List[object] = []
        for i in range(count):
            a_half.extend((a[i] & M32, a[i] >> HALF))
            b_half.extend((b[i] & M32, b[i] >> HALF))
        out_halves: List[object] = []
        carry = np.zeros(a.shape[1], dtype=np.uint64)
        for k in range(halves):
            low = carry & M32
            high = carry >> HALF
            for i in range(max(0, k - halves_b + 1), min(k + 1, halves_a)):
                product = a_half[i] * b_half[k - i]
                low = low + (product & M32)
                high = high + (product >> HALF)
            out_halves.append(low & M32)
            carry = high + (low >> HALF)
        out = np.empty_like(a)
        for i in range(count):
            out[i] = out_halves[2 * i] | (out_halves[2 * i + 1] << HALF)
        return out

    # -- >64-bit div/rem: vectorised restoring division -----------------
    def ldivmod(a, b, wa: int, wb: int):
        """Per-lane ``(quotient, remainder)`` of two limb matrices.

        Classic restoring long division, one compare/subtract step per
        dividend bit; every step is a handful of ``(B,)``-vector NumPy
        ops, so the lane rank stays free (the pre-refactor version
        round-tripped through per-lane Python ints).  Zero-divisor lanes
        yield ``(0, 0)``, the repo's FIRRTL x/0 convention.
        """
        lanes = a.shape[1]
        count_q = a.shape[0]
        # Room for ``(rem << 1) | bit`` before the restoring subtract.
        count_r = nl(wb + 1)
        b_wide = ext(b, count_r)
        quotient = np.zeros((count_q, lanes), dtype=np.uint64)
        remainder = np.zeros((count_r, lanes), dtype=np.uint64)
        zero_divisor = ~nonzero(b)
        full = count_r * LIMB_BITS
        for i in range(min(wa, count_q * LIMB_BITS) - 1, -1, -1):
            word, offset = divmod(i, LIMB_BITS)
            bit_i = (a[word] >> u64(offset)) & ONE
            for j in range(count_r - 1, 0, -1):
                remainder[j] = (remainder[j] << ONE) | (
                    remainder[j - 1] >> u64(LIMB_BITS - 1)
                )
            remainder[0] = (remainder[0] << ONE) | bit_i
            less, _equal = compare(remainder, b_wide)
            fits = ~less  # remainder >= divisor: subtract and set the bit
            remainder = np.where(
                fits[None, :], lsub(remainder, b_wide, full), remainder
            )
            quotient[word] = quotient[word] | (
                fits.astype(np.uint64) << u64(offset)
            )
        zero = zero_divisor[None, :]
        return (
            np.where(zero, ZERO, quotient),
            np.where(zero, ZERO, remainder),
        )

    # -- comparisons: fold from the most-significant limb ---------------
    def compare(a, b):
        count = max(a.shape[0], b.shape[0])
        a, b = ext(a, count), ext(b, count)
        less = a[count - 1] < b[count - 1]
        equal = a[count - 1] == b[count - 1]
        for i in range(count - 2, -1, -1):
            less = less | (equal & (a[i] < b[i]))
            equal = equal & (a[i] == b[i])
        return less, equal

    # -- cross-limb shifts ----------------------------------------------
    def shift_left_const(a, amount: int, ow):
        count = nl(ow)
        a = ext(a, count)
        word, bits = divmod(amount, LIMB_BITS)
        out = np.zeros_like(a)
        for i in range(count):
            j = i - word
            if j < 0:
                continue
            row = a[j] << u64(bits) if bits else a[j]
            if bits and j >= 1:
                row = row | (a[j - 1] >> u64(LIMB_BITS - bits))
            out[i] = row
        return out

    def shift_amounts(s, limit: int):
        """Per-lane (word, bit, too_big) split of a shift-amount matrix.

        ``too_big`` marks lanes whose shift reaches ``limit`` (the width
        guard): any set bit would leave the masked result, so those lanes
        are zeroed exactly as the scalar ``_dshl``/``_dshr`` helpers do.
        """
        s0 = s[0]
        too_big = s0 >= u64(max(limit, 1))
        for row in range(1, s.shape[0]):
            too_big = too_big | (s[row] != ZERO)
        word = s0 >> u64(6)
        bits = s0 & u64(63)
        return word, bits, too_big

    def ldshl(a, s, ow):
        count = nl(ow)
        a = ext(a, count)
        word, bits, too_big = shift_amounts(s, ow)
        spill = (u64(LIMB_BITS) - bits) & u64(63)
        has_bits = bits > ZERO
        out = np.zeros_like(a)
        for shift_words in range(count):
            selected = word == u64(shift_words)
            if not selected.any():
                continue
            for i in range(shift_words, count):
                j = i - shift_words
                row = a[j] << bits
                if j >= 1:
                    row = row | np.where(has_bits, a[j - 1] >> spill, ZERO)
                out[i] = np.where(selected, row, out[i])
        return np.where(too_big[None, :], ZERO, out)

    def ldshr(a, s, in_width: int, ow):
        source = nl(in_width)
        count = nl(ow)
        a = ext(a, source)
        word, bits, too_big = shift_amounts(s, in_width)
        spill = (u64(LIMB_BITS) - bits) & u64(63)
        has_bits = bits > ZERO
        out = np.zeros((count, a.shape[1]), dtype=np.uint64)
        for shift_words in range(source):
            selected = word == u64(shift_words)
            if not selected.any():
                continue
            for i in range(count):
                j = i + shift_words
                if j >= source:
                    continue
                row = a[j] >> bits
                if j + 1 < source:
                    row = row | np.where(has_bits, a[j + 1] << spill, ZERO)
                out[i] = np.where(selected, row, out[i])
        return np.where(too_big[None, :], ZERO, out)

    def widen(a, b):
        count = max(a.shape[0], b.shape[0])
        return ext(a, count), ext(b, count)

    def lt(a, b):
        return bit(compare(a, b)[0])

    def eq(a, b):
        return bit(compare(a, b)[1])

    def lhead(a, n, in_width: int, ow):
        # shift = in_width - min(n, in_width), per lane; n >= in_width
        # (including any high limbs) clamps to a zero shift.
        n0 = n[0]
        clamp = n0 >= u64(max(in_width, 1))
        for row in range(1, n.shape[0]):
            clamp = clamp | (n[row] != ZERO)
        clamped = np.where(clamp, u64(in_width), n0)
        shift = (u64(in_width) - clamped)[None, :]
        return ldshr(a, shift, in_width, ow)

    def all_ones(a, width: int):
        count = nl(width)
        x = ext(a, count)
        full = mask_vector(width, count)
        flag = x[0] == full[0][0]
        for row in range(1, count):
            flag = flag & (x[row] == full[row][0])
        return bit(flag)

    def parity(a):
        folded = a[0]
        for row in range(1, a.shape[0]):
            folded = folded ^ a[row]
        return pop(folded)[None, :]

    return Target(
        add=ladd,
        sub=lsub,
        mul=lmul,
        div=lambda a, b, wa, wb: ldivmod(a, b, wa, wb)[0],
        rem=lambda a, b, wa, wb: ldivmod(a, b, wa, wb)[1],
        compare={
            "<": lt,
            "<=": lambda a, b: lt(b, a) ^ ONE,
            ">": lambda a, b: lt(b, a),
            ">=": lambda a, b: lt(a, b) ^ ONE,
            "==": eq,
            "!=": lambda a, b: eq(a, b) ^ ONE,
        },
        bitwise={
            sym: (lambda a, b, combine=combine: combine(*widen(a, b)))
            for sym, combine in BITWISE.items()
        },
        invert=lambda a, ow: ~ext(a, nl(ow)),
        neg=lambda a, ow: lsub(np.zeros((1, a.shape[1]), dtype=np.uint64), a, ow),
        shl=ldshl,
        shr=ldshr,
        head=lhead,
        cat=lambda a, b, wb, ow: shift_left_const(a, wb, ow) | ext(b, nl(ow)),
        select=lambda c, t, f: np.where(nonzero(c)[None, :], *widen(t, f)),
        truth=lambda a: bit(nonzero(a)),
        all_ones=all_ones,
        parity=parity,
        fit=m,
    )
