"""Python's shortest round-trip `repr` of float64 arrays, in plain numpy.

`format_rows` gives, byte for byte, the text that `repr(float(x))` gives for
each finite x, so a distribution file written through it is the file the
per-value `repr` writer wrote. The digits come from Ryu's `d2d` (Adams, "Ryu:
fast float-to-string conversion", PLDI 2018), run on uint64 arrays: the
64 x 128-bit products are built from 32-bit limbs, and digits are removed from
every value at once while the rounding interval allows. Values whose interval
ends are exact decimals (short values such as 0.5 or 1e-05) take Ryu's general
branch, with its trailing-zero flags and round-half-even, one removed digit at
a time.

The text follows Python's float_repr_style 'short': exponent form below 1e-4
and from 1e16 up, written `e-05`/`e+16` with at least two exponent digits,
and a `.0` on integral fixed-notation values. Each row's text is laid out in
fixed column slots (prefix, sign, integer digits, '.', leading zeros, fraction
digits, exponent, terminator) of one uint8 block, and a mask of the bytes each
row uses packs the block into its text in one pass.

Callers pass blocks of a few thousand values (states.FORMAT_CHUNK rows): one
call on a whole 77520-value table runs slower than its blocks, as its large
temporaries churn the allocator.
"""
from __future__ import annotations

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)
_TEN = _U64(10)
_SIGN = _U64(1 << 63)
_EXP_ALL = _U64(0x7FF << 52)
_MANTISSA = _U64((1 << 52) - 1)
_ONE_BITS = _U64(0x3FF << 52)  # stands in for 0.0 in the digit kernel

# Ryu's double tables: floor(2**j / 5**q) + 1 and 5**i, scaled to 125 bits
_POW5_INV_BITCOUNT = 125
_POW5_BITCOUNT = 125


def _pow5bits(e):
    """ceil(log2(5**e)) for e > 0, and 1 for e = 0."""
    return ((e * 1217359) >> 19) + 1


def _exponent_tables():
    """(q, e10, shift, limbs) of Ryu's d2d for each biased exponent 0..2046:
    the table row, 5**-q (e2 >= 0) or 5**i (e2 < 0) scaled to 125 bits, as
    four 32-bit limbs, least significant first."""
    pow5 = [5 ** i for i in range(342)]
    rows = [(1 << (p.bit_length() - 1 + _POW5_INV_BITCOUNT)) // p + 1 for p in pow5]
    for p in pow5[:326]:
        shift = p.bit_length() - _POW5_BITCOUNT
        rows.append(p >> shift if shift >= 0 else p << -shift)
    table = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in rows), dtype="<u4")
    table = table.reshape(-1, 4).astype(np.uint64)
    e2 = np.maximum(np.arange(2047), 1) - (1023 + 52 + 2)
    pos = e2 >= 0
    ep, en = np.maximum(e2, 0), np.maximum(-e2, 0)
    qp = ((ep * 78913) >> 18) - (ep > 3)
    qn = ((en * 732923) >> 20) - (en > 1)
    i_n = en - qn
    shift = np.where(pos, qp + _POW5_INV_BITCOUNT + _pow5bits(qp) - 1 - ep,
                     qn - _pow5bits(i_n) + _POW5_BITCOUNT) - 64
    row = np.where(pos, qp, 342 + i_n)
    limbs = tuple(table[row, b] for b in range(4))
    return np.where(pos, qp, qn), np.where(pos, qp, qn + e2), shift.astype(np.uint64), limbs


_Q, _E10, _SHIFT, _LIMBS = _exponent_tables()
_BACK = _U64(64) - _SHIFT
_FIRST_POSITIVE_E2 = 1023 + 52 + 2  # the biased exponent of e2 = 0
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
# 5 * 10**(k - 1): the least remainder mod 10**k whose last removed digit is >= 5
_HALF = np.array([2 ** 64 - 1] + [5 * 10 ** (k - 1) for k in range(1, 20)], dtype=np.uint64)
# _QUAD[v]: the four ASCII digits of v < 10000 as one little-endian uint32
_PAIRS = np.frombuffer("".join(f"{v:02d}" for v in range(100)).encode("ascii"),
                       dtype="<u2").astype(np.uint32)
_QUAD = (_PAIRS[:, None] | (_PAIRS[None, :] << 16)).reshape(-1)
_COLS = np.arange(17)


def _mul_shift(x, limbs, shift, back):
    """floor(x * mul / 2**(64 + shift)) mod 2**64 for x < 2**55, where limbs are
    the four 32-bit limbs of mul and back = 64 - shift, 1 <= shift <= 63."""
    x0, x1 = x & _M32, x >> _S32
    p0, p1, p2, p3 = limbs
    t0, t1, t2, t3 = x0 * p0, x0 * p1, x0 * p2, x0 * p3
    u0, u1, u2, u3 = x1 * p0, x1 * p1, x1 * p2, x1 * p3
    # 32-bit columns of the product, each carrying into the next
    c = (t0 >> _S32) + (t1 & _M32) + (u0 & _M32)
    c = (c >> _S32) + (t1 >> _S32) + (t2 & _M32) + (u0 >> _S32) + (u1 & _M32)
    low = c & _M32
    c = (c >> _S32) + (t2 >> _S32) + (t3 & _M32) + (u1 >> _S32) + (u2 & _M32)
    low |= c << _S32
    c = (c >> _S32) + (t3 >> _S32) + (u2 >> _S32) + (u3 & _M32)
    high = (c & _M32) + (((c >> _S32) + (u3 >> _S32)) << _S32)
    return (low >> shift) | (high << back)


def _multiple_of_pow5(v, q):
    """v is a multiple of 5**q, elementwise."""
    five = _U64(5)
    count = np.zeros(len(v), dtype=np.int64)
    live = np.ones(len(v), dtype=bool)
    while live.any():
        quot = v // five
        live &= v == quot * five
        count += live
        v = np.where(live, quot, v)
    return count >= q


def _bools(flags):
    """A bool array as uint64 zeros and ones."""
    return flags.view(np.uint8).astype(np.uint64)


def _d2d(bits):
    """(digits, exponent) with digits * 10**exponent the shortest decimal that
    rounds back to each positive finite double, given by its IEEE bits."""
    ieee_m = bits & _MANTISSA
    ieee_e = (bits >> _U64(52)).view(np.int64)
    m2 = ieee_m | (_bools(ieee_e != 0) << _U64(52))
    even = (ieee_m & _U64(1)) == 0
    mv = m2 << _U64(2)
    mm_shift = (ieee_m != 0) | (ieee_e <= 1)
    # e2 >= 0 multiplies by a 5**-q table row, e2 < 0 by a 5**i row
    pos = ieee_e >= _FIRST_POSITIVE_E2
    q, e10, shift, back = _Q[ieee_e], _E10[ieee_e], _SHIFT[ieee_e], _BACK[ieee_e]
    limbs = [limb[ieee_e] for limb in _LIMBS]
    vr = _mul_shift(mv, limbs, shift, back)
    vp = _mul_shift(mv + _U64(2), limbs, shift, back)
    vm = _mul_shift(mv - _U64(1) - _bools(mm_shift), limbs, shift, back)
    # trailing-zero flags: the interval end vm, or vr itself, is an exact decimal
    tiny_q = ~pos & (q <= 1)
    vr_tz = tiny_q | (~pos & (q < 63) & ((mv & ((_U64(1) << q.view(np.uint64)) - _U64(1))) == 0))
    vm_tz = tiny_q & even & mm_shift
    vp -= _bools(tiny_q & ~even)
    small = np.flatnonzero(pos & (q <= 21))
    if small.size:
        qs, mvs, accept = q[small], mv[small], even[small]
        fives = mvs % _U64(5) == 0
        vr_tz[small] = fives & _multiple_of_pow5(mvs, qs)
        mms = mvs - _U64(1) - _bools(mm_shift[small])
        vm_tz[small] = ~fives & accept & _multiple_of_pow5(mms, qs)
        vp[small] -= _bools(~fives & ~accept & _multiple_of_pow5(mvs + _U64(2), qs))
    # Ryu's common case on every value: remove the k digits that keep vp and vm
    # apart, rounding half up on the last one removed
    k = np.zeros(len(bits), dtype=np.int64)
    hi, lo = vp, vm
    while True:
        hi, lo = hi // _TEN, lo // _TEN
        apart = hi > lo
        if not apart.any():
            break
        k += apart
    scale = _POW10[k]
    digits = vr // scale
    digits += _bools((vr - digits * scale >= _HALF[k]) | (digits == vm // scale))
    exponent = e10 + k
    general = np.flatnonzero(vm_tz | vr_tz)
    if general.size:
        digits[general], removed = _general_case(vr[general], vp[general], vm[general],
                                                 vm_tz[general], vr_tz[general], even[general])
        exponent[general] = e10[general] + removed
    return digits, exponent


def _general_case(vr, vp, vm, vm_tz, vr_tz, accept):
    """Ryu's digit removal with its trailing-zero flags, one digit a round:
    (digits, removed) of the values given."""
    removed = np.zeros(len(vr), dtype=np.int64)
    last = np.zeros(len(vr), dtype=np.uint64)
    act = np.arange(len(vr))
    while act.size:
        hi, lo = vp[act] // _TEN, vm[act]
        lo_cut = lo // _TEN
        apart = hi > lo_cut
        act, hi, lo, lo_cut = act[apart], hi[apart], lo[apart], lo_cut[apart]
        r = vr[act]
        r_cut = r // _TEN
        vm_tz[act] &= lo == lo_cut * _TEN
        vr_tz[act] &= last[act] == 0
        last[act] = r - r_cut * _TEN
        vr[act], vp[act], vm[act] = r_cut, hi, lo_cut
        removed[act] += 1
    act = np.flatnonzero(vm_tz)
    while act.size:
        lo = vm[act]
        lo_cut = lo // _TEN
        zero = lo == lo_cut * _TEN
        act, lo_cut = act[zero], lo_cut[zero]
        r = vr[act]
        r_cut = r // _TEN
        vr_tz[act] &= last[act] == 0
        last[act] = r - r_cut * _TEN
        vr[act], vm[act] = r_cut, lo_cut
        removed[act] += 1
    # round half to even on an exact tie
    last[vr_tz & (last == 5) & ((vr & _U64(1)) == 0)] = 4
    up = ((vr == vm) & ~(accept & vm_tz)) | (last >= 5)
    return vr + _bools(up), removed


def _put_digits(rows, value):
    """Write the last rows.shape[1] decimal digits of value, zero-padded, into
    the columns of rows: four at a time from the right, then the leading ones."""
    at = rows.shape[1]
    while at >= 4:
        quot = value // _U64(10000)
        rows[:, at - 4:at].view("<u4")[:, 0] = _QUAD[value - quot * _U64(10000)]
        value, at = quot, at - 4
    if at:
        rows[:, :at] = _QUAD.view(np.uint8).reshape(-1, 4)[value % _POW10[at], 4 - at:]


def format_rows(values, prefix=None, end: str = "\n") -> str:
    """Text of the rows prefix[i] + repr(float(values[i])) + end.

    values are finite float64; prefix, when given, is a (len(values), P) uint8
    array of each row's leading bytes, all of them used. The slot widths of
    the block follow its widest value, so a block of short values packs little.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    bits = values.view(np.uint64)
    neg = bits >= _SIGN
    bits = bits & ~_SIGN
    if np.any(bits >= _EXP_ALL):
        raise ValueError("format_rows takes finite values only")
    zero = bits == 0
    digits, exponent = _d2d(np.where(zero, _ONE_BITS, bits))
    digits[zero] = 0
    exponent[zero] = 0
    ndigits = np.searchsorted(_POW10, digits, side="right")
    ndigits[zero] = 1
    point = exponent + ndigits  # the value is 0.DIGITS * 10**point
    sci = (point <= -4) | (point > 16)
    # the digits as 17 digits, left-aligned; lead of them go before the '.'
    aligned = digits * _POW10[17 - ndigits]
    lead = np.where(sci, 1, np.maximum(point, 0))
    split = _POW10[17 - lead]
    whole = aligned // split
    frac = (aligned - whole * split) * _POW10[lead]
    n_whole = np.maximum(lead, 1)
    n_frac = np.where(sci, ndigits - 1, np.maximum(ndigits - lead, 1))
    n_zeros = np.where(sci, 0, np.maximum(-point, 0))
    power = point - 1
    # column slots of the block
    w_pre = 0 if prefix is None else prefix.shape[1]
    w_sign = int(neg.any())
    w_whole, w_zeros, w_frac = int(n_whole.max()), int(n_zeros.max()), int(n_frac.max())
    w_exp = 5 if sci.any() else 0
    width = w_pre + w_sign + w_whole + 1 + w_zeros + w_frac + w_exp + 1
    rows = np.empty((n, width), dtype=np.uint8)
    mask = np.ones((n, width), dtype=bool)
    at = 0
    if w_pre:
        rows[:, :w_pre] = prefix
        at = w_pre
    if w_sign:
        rows[:, at] = ord("-")
        mask[:, at] = neg
        at += 1
    # the integer digits right-aligned in their slot, the fraction digits left-aligned
    _put_digits(rows[:, at:at + w_whole], whole)
    np.greater_equal(_COLS[:w_whole], (w_whole - n_whole)[:, None], out=mask[:, at:at + w_whole])
    at += w_whole
    rows[:, at] = ord(".")
    mask[:, at] = n_frac > 0
    at += 1
    rows[:, at:at + w_zeros] = ord("0")
    np.less(_COLS[:w_zeros], n_zeros[:, None], out=mask[:, at:at + w_zeros])
    at += w_zeros
    _put_digits(rows[:, at:at + w_frac], frac // _POW10[17 - w_frac])
    np.less(_COLS[:w_frac], n_frac[:, None], out=mask[:, at:at + w_frac])
    at += w_frac
    if w_exp:
        # 'e', the sign, then three digits, of which a two-digit power uses two
        size = np.abs(power)
        rows[:, at + 1:at + 5].view("<u4")[:, 0] = _QUAD[size]
        rows[:, at] = ord("e")
        rows[:, at + 1] = np.where(power < 0, ord("-"), ord("+"))
        mask[:, at:at + 5] = sci[:, None]
        mask[:, at + 2] &= size >= 100
        at += 5
    rows[:, at] = ord(end)
    return str(memoryview(rows[mask]), "ascii")
