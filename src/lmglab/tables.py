"""CSV bodies of float tables, formatted exactly like ``"%.17g"`` but vectorized.

``csv_body(table)`` returns the bytes of ``"%.17g,...,%.17g\\n" % row`` over
every row of a 2-D float64 table.  CPython formats one float at a time
(about 0.5 us per value), which made text conversion the largest cost of the
CLI; this module does the same fixed-precision conversion in exact integer
arithmetic over whole arrays (the method of Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019, with numpy alone).

For a normal double |x| = m 2^q (m < 2^53) and a decimal exponent k, the 17
significant digits are D = round-half-even(m 5^s 2^(q+s)) with s = 16 - k.
The product m 5^s is formed exactly: in two 64-bit words for s <= 27, in
32-bit limbs above.  The bit under the cut at 2^-(q+s) decides the
rounding, and as 5^s is odd, every bit under that one is zero exactly when
m has enough trailing zero bits.  k comes from log10 and is corrected on
the rows where D falls outside [10^16, 10^17).  The text follows C's %g:
fixed notation for -4 <= k <= 16, exponent notation below, trailing zeros
stripped.

The fast range is 1e-39 <= |x| < 1e17 plus the signed zeros.  Everything
else (nan, inf, subnormals, other tiny or huge values) is formatted by
Python and spliced in, so the output is exact for every float64.
"""

from __future__ import annotations

import functools

import numpy as np

# values converted per pass; bounds the temporaries whatever the table size
CHUNK = 1 << 14

_FAST_MIN, _FAST_MAX = 1e-39, 1e17
_K_MIN = -40  # the double 1e-39 lies just under 10^-39
_S_WORDS = 27  # 5^27 < 2^63: the product fits two 64-bit words

# text classes; fixed notation with exponent k is class _FIXED + k, k = -4..16
_ZERO, _EXPONENT, _FIXED, _OTHER = 0, 1, 6, 23
_WIDTH = 25  # longest "%.17g" text plus its separator: "-4.9406564584124654e-324,"

# the 32 source bytes of one value: sign ('-' or 0), '0', point ('.' or 0),
# 'e', five digit groups "000d" "dddd" x 4 (with the stripped trailing
# zeros set to 0), the separator, '-', the two exponent digits and four
# unused bytes.  A class's byte map picks its text out of them, and the 0
# bytes drop out at the end.
_SIGN, _ZERO_CHAR, _POINT, _E, _DIGIT0 = 0, 1, 2, 3, 7
_SEP, _EXP_MINUS, _EXP = 24, 25, 26

_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


@functools.cache
def _tables():
    """Lookup tables, built on first use: the 4-digit ASCII groups as uint32,
    their trailing zero counts, the digit-word masks by digits kept, 5^s as
    uint64 and in 32-bit limbs (limb, s), and the byte map of each class."""
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    groups = (digits + ord("0")).astype(np.uint8).view("<u4")[:, 0]
    trailing = np.where(n % 10 != 0, 0, np.where(n % 100 != 0, 1,
                        np.where(n % 1000 != 0, 2, np.where(n != 0, 3, 4))))
    # digit j of D is byte 3 + j of the five digit words
    kept = np.arange(18)[:, None] > np.arange(-3, 17)[None, :]
    masks = (kept * np.uint8(0xFF)).view("<u4")

    pow5 = [5**s for s in range(16 - _K_MIN + 1)]
    n_limbs = (pow5[-1].bit_length() + 31) // 32
    limbs = np.array(
        [[(p >> (32 * j)) & 0xFFFFFFFF for p in pow5] for j in range(n_limbs)],
        dtype=np.uint64,
    )
    words = np.array(pow5[: _S_WORDS + 1], dtype=np.uint64)

    digit = list(range(_DIGIT0, _DIGIT0 + 17))
    maps = {_ZERO: [_SIGN, _ZERO_CHAR, _SEP]}
    maps[_EXPONENT] = (
        [_SIGN, digit[0], _POINT] + digit[1:] + [_E, _EXP_MINUS, _EXP, _EXP + 1, _SEP]
    )
    for k in range(-4, 17):
        if k < 0:
            text = [_SIGN, _ZERO_CHAR, _POINT] + [_ZERO_CHAR] * (-k - 1) + digit
        else:
            text = [_SIGN] + digit[: k + 1] + [_POINT] + digit[k + 1 :]
        maps[_FIXED + k] = text + [_SEP]
    byte_maps = [np.array(maps[cls], dtype=np.intp) for cls in range(_OTHER)]
    return groups, trailing, masks, words, limbs, byte_maps


def _shifted_product_words(mant, f, cut):
    """floor(mant f / 2^cut) for mant < 2^57, f < 2^64, a result under 2^64."""
    m0, m1 = mant & _M32, mant >> _U32
    f0, f1 = f & _M32, f >> _U32
    low = m0 * f0
    cross = m0 * f1
    cross2 = m1 * f0
    mid = (low >> _U32) + (cross & _M32) + (cross2 & _M32)
    lo = (low & _M32) | (mid << _U32)
    hi = m1 * f1 + (cross >> _U32) + (cross2 >> _U32) + (mid >> _U32)
    cut = cut.astype(np.uint64)
    below = np.minimum(cut, np.uint64(63))
    shifted = (lo >> below) | ((hi << np.uint64(1)) << (np.uint64(63) - below))
    return np.where(cut < 64, shifted, hi >> (np.maximum(cut, 64) - np.uint64(64)))


def _shifted_product_limbs(mant, limbs, cut):
    """floor(mant f / 2^cut) for mant < 2^57, f given as 32-bit limbs (one
    row per limb), a result under 2^64."""
    m0, m1 = mant & _M32, mant >> _U32
    n_limbs = limbs.shape[0]
    c = np.zeros((n_limbs + 4, mant.size), dtype=np.uint64)
    for i in range(n_limbs):
        p0 = m0 * limbs[i]
        p1 = m1 * limbs[i]
        c[i] += p0 & _M32
        c[i + 1] += (p0 >> _U32) + (p1 & _M32)
        c[i + 2] += p1 >> _U32
    for i in range(n_limbs + 1):
        c[i + 1] += c[i] >> _U32
        c[i] &= _M32
    # the result spans three limbs from limb cut // 32 on
    flat = c.ravel()
    at = (cut >> 5) * mant.size + np.arange(mant.size)
    b = (cut & 31).astype(np.uint64)
    return (
        (flat[at] >> b)
        | (flat[at + mant.size] << (_U32 - b))
        | ((flat[at + 2 * mant.size] << _U32) << (_U32 - b))
    )


def _scaled_digits(mant, q, k, tables):
    """round-half-even(mant 10^(16-k) 2^q) for uint64 mant < 2^53, exactly,
    as int64, and whether it was rounded up."""
    words, limbs = tables[3], tables[4]
    s = 16 - k
    # r = floor(mant 5^s 2^(q+s+1)) holds the digits and the rounding bit
    u = q + s + 1
    mant = mant << np.maximum(u, 0).astype(np.uint64)
    cut = np.maximum(-u, 0)
    by_words = s <= _S_WORDS
    if by_words.all():
        r = _shifted_product_words(mant, words[s], cut)
    else:
        r = np.empty(mant.size, dtype=np.uint64)
        rows = np.flatnonzero(by_words)
        r[rows] = _shifted_product_words(mant[rows], words[s[rows]], cut[rows])
        rows = np.flatnonzero(~by_words)
        r[rows] = _shifted_product_limbs(mant[rows], limbs[:, s[rows]], cut[rows])
    # the bits under the rounding bit are those of mant under bit cut
    below = np.minimum(cut, 63).astype(np.uint64)
    sticky = (mant & ((np.uint64(1) << below) - np.uint64(1))) != 0
    r = r.astype(np.int64)
    d = r >> 1
    up = (r & 1).astype(bool) & (sticky | (d & 1).astype(bool))
    return d + up, up


def _digits_and_exponent(v, tables):
    """(D, k) for positive v in the fast range: v = D 10^(k-16) to 17 digits."""
    bits = v.view(np.uint64)
    mant = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = (bits >> np.uint64(52)).astype(np.int64) - 1075
    k = np.clip(np.floor(np.log10(v)).astype(np.int64), _K_MIN, 16)
    d, up = _scaled_digits(mant, q, k, tables)
    # log10 may miss k by one next to a power of ten.  The exact value, not
    # the rounded one, tells whether k is one too high; a D of 10^17 after
    # rounding means the next k, where D = 10^16.
    for step in (-1, 1):
        redo = np.flatnonzero(d - up < 10**16 if step < 0 else d >= 10**17)
        if redo.size:
            k[redo] += step
            d[redo] = _scaled_digits(mant[redo], q[redo], k[redo], tables)[0]
    return d, k


def _chunk_text(x, sep, tables):
    groups, trailing, masks, _, _, byte_maps = tables
    n = x.size
    mag = np.abs(x)
    fast = np.flatnonzero((mag >= _FAST_MIN) & (mag < _FAST_MAX))
    d_fast, k_fast = _digits_and_exponent(mag[fast], tables)
    cls = np.full(n, _OTHER, dtype=np.int16)
    cls[mag == 0.0] = _ZERO
    cls[fast] = np.where(k_fast < -4, _EXPONENT, _FIXED + k_fast)
    d = np.full(n, 10**16, dtype=np.int64)
    d[fast] = d_fast
    k = np.zeros(n, dtype=np.int64)
    k[fast] = k_fast

    # every value in class order, so that each class is one block of rows
    order = np.argsort(cls, kind="stable")
    cls, d, k = cls[order], d[order], k[order]
    g = np.empty((n, 5), dtype=np.int64)
    hi = d // 10**8
    lo = d - hi * 10**8
    g[:, 0] = hi // 10**8
    hi -= g[:, 0] * 10**8
    g[:, 1] = hi // 10**4
    g[:, 2] = hi - g[:, 1] * 10**4
    g[:, 3] = lo // 10**4
    g[:, 4] = lo - g[:, 3] * 10**4
    zeros = trailing[g[:, 4]]
    for j in (3, 2, 1):
        zeros += (zeros == 4 * (4 - j)) * trailing[g[:, j]]
    # digits before the point stay; the point stays when a digit follows it
    # (always for 0.000ddd)
    whole = np.maximum(k, 0) + 1
    n_digits = np.maximum(17 - zeros, whole)
    point = (n_digits > whole) | ((cls >= _FIXED - 4) & (cls < _FIXED))

    src = np.empty((n, 8), dtype="<u4")
    src[:, 0] = (
        np.signbit(x[order]) * np.uint32(ord("-"))
        + point * np.uint32(ord(".") << 16)
        + np.uint32((ord("0") << 8) | (ord("e") << 24))
    )
    src[:, 1:6] = groups[g] & masks[n_digits]
    src[:, 6] = groups[np.maximum(-k, 0)] - np.uint32(ord("0") + (3 << 8)) + sep[order]
    src[:, 7] = 0
    src = src.view(np.uint8)

    text = np.zeros((n, _WIDTH), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(cls, prepend=-1))
    for a, b in zip(starts.tolist(), starts[1:].tolist() + [n]):
        rows = order[a:b]
        c = int(cls[a])
        if c == _OTHER:
            ends = sep[rows].astype(np.uint8).tobytes().decode()
            padded = "".join(
                ("%.17g" % value + end).ljust(_WIDTH, "\0")
                for value, end in zip(x[rows].tolist(), ends)
            )
            text[rows] = np.frombuffer(padded.encode(), np.uint8).reshape(-1, _WIDTH)
        else:
            byte_map = byte_maps[c]
            text[rows, : byte_map.size] = src[a:b][:, byte_map]
    return text.tobytes().translate(None, b"\0")


def csv_body(table) -> bytes:
    """The bytes of ``"%.17g,...,%.17g\\n" % row`` over every row of ``table``.

    ``table`` is a 2-D array-like of floats, one row per CSV line.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("csv_body takes a 2-D table")
    if table.size == 0:
        return b""
    tables = _tables()
    n_cols = table.shape[1]
    flat = np.ascontiguousarray(table).ravel()
    chunk = max(CHUNK // n_cols, 1) * n_cols
    sep = np.full(n_cols, ord(","), dtype=np.uint32)
    sep[-1] = ord("\n")
    sep = np.tile(sep, chunk // n_cols)
    return b"".join(
        _chunk_text(flat[lo : lo + chunk], sep[: min(chunk, flat.size - lo)], tables)
        for lo in range(0, flat.size, chunk)
    )
