"""CSV bodies of float tables, formatted exactly like ``"%.17g"`` but vectorized.

``csv_body(table)`` returns the bytes of ``"%.17g,...,%.17g\\n" % row`` over
every row of a 2-D float64 table.  CPython formats one float at a time
(about 0.5 us per value), which made text conversion the largest cost of the
CLI; this module does the same fixed-precision conversion over whole arrays.

For a double x with decimal exponent k, the 17 significant digits are
D = round-half-even(|x| 10^s), s = 16 - k.  For s <= 22, 10^s is exact in
double and Dekker's exact product (Veltkamp split by 2^27 + 1; Dekker,
Numer. Math. 18, 1971) gives p + e = |x| 10^s exactly.  As p >= 2^53 is an
even integer, D = p + rint(e), rounded up when rint(e) > e.  For
22 < s <= 56, i.e. 1e-39 <= |x| < 1e-6, D comes from exact integer
arithmetic instead (the method of Adams, "Ryu revisited: printf floating
point conversion", OOPSLA 2019): with |x| = m 2^q, D =
round-half-even(m 5^s 2^(q+s)), the product m 5^s formed exactly in two
64-bit words for s <= 27 and in 32-bit limbs above, the bit under the cut
deciding the rounding.  k comes from log10 and is corrected on the rows
where D falls outside [10^16, 10^17); +-0 is D = 0, k = 0.

Each value's text is laid out in one row of 24 uint16 slots (48 bytes) and
the zero bytes are dropped at the end:

    slot 0-3    sign ('-' or 0), then the lead "0." .. "0.000" when -4 <= k < 0
    slot 4-20   the 17 digits, each slot a digit byte and an empty point byte;
                stripped trailing digits are masked to 0, and one scatter
                puts '.' after digit k (fixed notation) or digit 0 (exponent)
    slot 21-22  "e-XX" when k < -4
    slot 23     the separator

This follows C's %g: fixed notation for -4 <= k <= 16, exponent notation
below, trailing zeros stripped.  The fast range is 1e-39 <= |x| < 1e17 plus
the signed zeros.  Everything else (nan, inf, subnormals, other tiny or huge
values) is formatted by Python and written into its row, so the output is
exact for every float64.
"""

from __future__ import annotations

import functools

import numpy as np

# values converted per pass; bounds the temporaries whatever the table size
CHUNK = 1 << 14

_FAST_MIN, _FAST_MAX = 1e-39, 1e17
_K_MIN = -40  # the double 1e-39 lies just under 10^-39
_S_EXACT = 22  # 10^22 is the largest power of ten that is exact in double
_S_WORDS = 27  # 5^27 < 2^63: the product fits two 64-bit words
_SPLIT = float(2**27 + 1)  # Veltkamp's splitter for 53-bit doubles

_ROW = 48  # bytes of one value's row: 24 uint16 slots
_POINT0 = 9  # byte of the point slot after digit 0
_SEP_SHIFT = np.uint64(48)  # the separator's bit offset in the row's last word

_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


@functools.cache
def _tables():
    """Lookup tables, built on first use: 10^s as a double and its Veltkamp
    halves, 5^s as uint64 and in 32-bit limbs (limb, s), the 4-digit groups
    as four (digit, point) slots in a uint64 and their trailing zero counts,
    the digit masks by digits kept, and the lead and exponent words."""
    pow10 = np.array([float(10**s) for s in range(16 - _K_MIN + 1)])
    t = pow10 * _SPLIT
    pow10_hi = t - (t - pow10)
    pow10_lo = pow10 - pow10_hi

    pow5 = [5**s for s in range(16 - _K_MIN + 1)]
    n_limbs = (pow5[-1].bit_length() + 31) // 32
    limbs = np.array(
        [[(p >> (32 * j)) & 0xFFFFFFFF for p in pow5] for j in range(n_limbs)],
        dtype=np.uint64,
    )
    words = np.array(pow5[: _S_WORDS + 1], dtype=np.uint64)

    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    quads = (digits + ord("0")).astype("<u2").view("<u8")[:, 0]
    trailing = np.where(n % 10 != 0, 0, np.where(n % 100 != 0, 1,
                        np.where(n % 1000 != 0, 2, np.where(n != 0, 3, 4)))).astype(np.int8)
    # words 1-4 of a row hold digits 0-15, digit j in the low byte of slot
    # 4 + j; masks[w, n] keeps those of word w + 1 among the first n digits
    kept = np.arange(18)[None, :, None] > np.arange(16).reshape(4, 1, 4)
    masks = (kept * np.uint16(0xFF)).astype("<u2").view("<u8")[..., 0]

    # word 0 by clip(k, -5, 0) + 5: exponent, k = -4 .. -1, fixed
    lead = np.zeros((6, 8), dtype=np.uint8)
    for k in range(-4, 0):
        text = b"0." + b"0" * (-k - 1)
        lead[k + 5, 1 : 1 + len(text)] = list(text)
    # word 5 by clip(-k, 4, 40) - 4: bytes 2-5 hold "e-XX" when k < -4
    expo = np.zeros((40 - 4 + 1, 8), dtype=np.uint8)
    for minus_k in range(5, 41):
        expo[minus_k - 4, 2:6] = list(b"e-%02d" % minus_k)
    return (pow10, pow10_hi, pow10_lo, words, limbs, quads, trailing, masks,
            lead.view("<u8")[:, 0], expo.view("<u8")[:, 0])


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


def _scaled_digits_exact(v, s, tables):
    """round-half-even(v 10^s) for positive normal v and s <= 56 by integer
    arithmetic, as int64, and whether it was rounded up."""
    words, limbs = tables[3], tables[4]
    bits = v.view(np.uint64)
    mant = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = (bits >> np.uint64(52)).astype(np.int64) - 1075
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


def _scaled_digits(v, k, tables):
    """round-half-even(v 10^(16-k)) for positive v in the fast range, as
    int64, and whether it was rounded up; exact wherever the result is
    at least 2^53."""
    pow10, pow10_hi, pow10_lo = tables[:3]
    s = 16 - k
    p = v * pow10[s]
    t = v * _SPLIT
    v_hi = t - (t - v)
    v_lo = v - v_hi
    b_hi, b_lo = pow10_hi[s], pow10_lo[s]
    e = ((v_hi * b_hi - p) + v_hi * b_lo + v_lo * b_hi) + v_lo * b_lo
    r = np.rint(e)
    d = p.astype(np.int64) + r.astype(np.int64)
    up = r > e
    rows = np.flatnonzero(s > _S_EXACT)
    if rows.size:
        d[rows], up[rows] = _scaled_digits_exact(v[rows], s[rows], tables)
    return d, up


def _digits_and_exponent(v, tables):
    """(D, k) for positive v in the fast range: v = D 10^(k-16) to 17 digits."""
    k = np.clip(np.floor(np.log10(v)).astype(np.int64), _K_MIN, 16)
    d, up = _scaled_digits(v, k, tables)
    # log10 may miss k by one next to a power of ten.  The exact value, not
    # the rounded one, tells whether k is one too high; a D of 10^17 after
    # rounding means the next k, where D = 10^16.
    for step in (-1, 1):
        redo = np.flatnonzero(d - up < 10**16 if step < 0 else d >= 10**17)
        if redo.size:
            k[redo] += step
            d[redo] = _scaled_digits(v[redo], k[redo], tables)[0]
    return d, k


def _chunk_text(x, sep, tables):
    quads, trailing, masks, lead, expo = tables[5:]
    n = x.size
    mag = np.abs(x)
    fast = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    # rows outside the fast range are digitized as 1.0 (k = 0) and zeros
    # become D = 0; the others are overwritten below
    d, k = _digits_and_exponent(np.where(fast, mag, 1.0), tables)
    d[mag == 0.0] = 0

    hi = d // 10**9
    lo = d - hi * 10**9
    g0 = hi // 10**4
    g1 = hi - g0 * 10**4
    g2 = lo // 10**5
    rest = lo - g2 * 10**5
    g3 = rest // 10
    last = rest - g3 * 10
    zeros = (last == 0).astype(np.int8)
    for width, g in ((1, g3), (5, g2), (9, g1), (13, g0)):
        zeros += (zeros == width) * trailing[g]
    # digits before the point stay; the point stays when a digit follows it
    whole = np.maximum(k, 0) + 1
    n_digits = np.maximum(17 - zeros, whole)

    row = np.empty((n, _ROW // 8), dtype=np.uint64)
    row[:, 0] = lead[np.clip(k, -5, 0) + 5] | np.signbit(x) * np.uint64(ord("-"))
    for w, g in enumerate((g0, g1, g2, g3)):
        np.bitwise_and(quads[g], masks[w][n_digits], out=row[:, w + 1])
    row[:, 5] = expo[np.clip(-k, 4, 40) - 4] | sep
    row[:, 5] |= (n_digits == 17) * (last.astype(np.uint64) + np.uint64(ord("0")))
    text = row.view(np.uint8)
    point = np.flatnonzero((n_digits > whole) & ((k >= 0) | (k < -4)))
    text.reshape(-1)[point * _ROW + _POINT0 + 2 * whole[point] - 2] = ord(".")

    other = np.flatnonzero(~fast & (mag != 0.0))
    if other.size:
        ends = (sep[other] >> _SEP_SHIFT).astype(np.uint8).tobytes().decode()
        padded = "".join(
            ("%.17g" % value + end).ljust(_ROW, "\0")
            for value, end in zip(x[other].tolist(), ends)
        )
        text[other] = np.frombuffer(padded.encode(), np.uint8).reshape(-1, _ROW)
    return row.tobytes().translate(None, b"\0")


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
    sep = np.full(n_cols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    sep = np.tile(sep << _SEP_SHIFT, chunk // n_cols)
    return b"".join(
        _chunk_text(flat[lo : lo + chunk], sep[: min(chunk, flat.size - lo)], tables)
        for lo in range(0, flat.size, chunk)
    )
