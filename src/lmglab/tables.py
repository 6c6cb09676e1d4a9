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
22 < s <= 43, i.e. 1e-27 <= |x| < 1e-6, a second exact product scales
p1 + e1 = |x| 10^22 by the exact 10^(s-22): p2 + e2 = p1 10^(s-22), and
f = e2 + fl(e1 10^(s-22)) lies within 2^-48 of |x| 10^s - p2 (p2 < 2^57,
so |e2| <= 8 and |e1 10^(s-22)| <= 16).  D = p2 + rint(f) is then exact
unless |x| 10^s is within 2^-46 of a tie; such a row is "in doubt" and
goes to Python.  k comes from log10 and is corrected on the rows where D
falls outside [10^16, 10^17); +-0 is D = 0, k = 0.

Each value's text is laid out in one row of 24 uint16 slots (48 bytes) and
the zero bytes are dropped at the end:

    slot 0-3    sign ('-' or 0), then the lead "0." .. "0.000" when -4 <= k < 0
    slot 4-20   the 17 digits, each slot a digit byte and an empty point byte;
                stripped trailing digits are masked to 0, and one scatter
                puts '.' after digit k (fixed notation) or digit 0 (exponent)
    slot 21-22  "e-XX" when k < -4
    slot 23     the separator

This follows C's %g: fixed notation for -4 <= k <= 16, exponent notation
below, trailing zeros stripped.  The fast range is 1e-27 <= |x| < 1e17 plus
the signed zeros.  Everything else (nan, inf, subnormals, other tiny or huge
values, rows in doubt) is formatted by Python and written into its row, so
the output is exact for every float64.  Tables of at most
``PER_VALUE_MAX`` values are formatted by Python alone.
"""

from __future__ import annotations

import functools

import numpy as np

# values converted per pass; bounds the temporaries whatever the table size
CHUNK = 1 << 14
# up to this many values, Python's "%.17g" (1-2 us a value) beats the
# kernel's fixed cost of about 150 numpy calls (0.15-0.2 ms a table)
PER_VALUE_MAX = 128

_FAST_MIN, _FAST_MAX = 1e-27, 1e17
_K_MIN = -27  # the double 1e-27 lies just above 10^-27
_S_EXACT = 22  # 10^22 is the largest power of ten that is exact in double
_SPLIT = float(2**27 + 1)  # Veltkamp's splitter for 53-bit doubles

_ROW = 48  # bytes of one value's row: 24 uint16 slots
_POINT0 = 9  # byte of the point slot after digit 0
_SEP_SHIFT = np.uint64(48)  # the separator's bit offset in the row's last word


@functools.cache
def _tables():
    """Lookup tables, built on first use: the exact powers 10^s as doubles
    and their Veltkamp halves, the 4-digit groups as four (digit, point)
    slots in a uint64 and their trailing zero counts, the digit masks by
    digits kept, and the lead and exponent words."""
    pow10 = np.array([float(10**s) for s in range(_S_EXACT + 1)])
    t = pow10 * _SPLIT
    pow10_hi = t - (t - pow10)
    pow10_lo = pow10 - pow10_hi

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
    # word 5 by clip(-k, 4, -_K_MIN) - 4: bytes 2-5 hold "e-XX" when k < -4
    expo = np.zeros((-_K_MIN - 4 + 1, 8), dtype=np.uint8)
    for minus_k in range(5, -_K_MIN + 1):
        expo[minus_k - 4, 2:6] = list(b"e-%02d" % minus_k)
    return (pow10, pow10_hi, pow10_lo, quads, trailing, masks,
            lead.view("<u8")[:, 0], expo.view("<u8")[:, 0])


def _two_product(a, b, b_hi, b_lo):
    """p = fl(a b) and e with p + e = a b exactly, for b split by Veltkamp
    as b_hi + b_lo (Dekker's exact product)."""
    p = a * b
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled_digits(v, k, tables):
    """round-half-even(v 10^(16-k)) for positive v in the fast range, as
    int64, whether it was rounded up, and whether that rounding is in doubt;
    exact wherever the result is at least 2^53 and not in doubt."""
    pow10, pow10_hi, pow10_lo = tables[:3]
    s = 16 - k
    first = np.minimum(s, _S_EXACT)
    p, f = _two_product(v, pow10[first], pow10_hi[first], pow10_lo[first])
    doubt = np.zeros(v.size, dtype=bool)
    rows = np.flatnonzero(s > _S_EXACT)
    if rows.size:
        # p + f = v 10^22 exactly; scale both by the exact 10^(s-22).  The
        # product of p is exact again and that of f rounds once, so f comes
        # within 2^-48 of v 10^s - p and only a near-tie is in doubt.
        rest = s[rows] - _S_EXACT
        p[rows], e = _two_product(p[rows], pow10[rest], pow10_hi[rest], pow10_lo[rest])
        f[rows] = e + f[rows] * pow10[rest]
        doubt[rows] = np.abs(f[rows] - np.rint(f[rows])) > 0.5 - 2.0**-46
    r = np.rint(f)
    return p.astype(np.int64) + r.astype(np.int64), r > f, doubt


def _digits_and_exponent(v, tables):
    """(D, k, doubt) for positive v in the fast range: v = D 10^(k-16) to
    17 digits on every row not in doubt."""
    k = np.clip(np.floor(np.log10(v)).astype(np.int64), _K_MIN, 16)
    d, up, doubt = _scaled_digits(v, k, tables)
    # log10 may miss k by one next to a power of ten.  The exact value, not
    # the rounded one, tells whether k is one too high; a D of 10^17 after
    # rounding means the next k, where D = 10^16.  A redone row stays in
    # doubt if it was: a near-tie under 10^17 is no longer one at k + 1.
    for step in (-1, 1):
        redo = np.flatnonzero(d - up < 10**16 if step < 0 else d >= 10**17)
        if redo.size:
            k[redo] += step
            d[redo], _, again = _scaled_digits(v[redo], k[redo], tables)
            doubt[redo] |= again
    return d, k, doubt


def _chunk_text(x, sep, tables):
    quads, trailing, masks, lead, expo = tables[3:]
    n = x.size
    mag = np.abs(x)
    fast = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    # rows outside the fast range are digitized as 1.0 (k = 0) and zeros
    # become D = 0; the others are overwritten below
    d, k, doubt = _digits_and_exponent(np.where(fast, mag, 1.0), tables)
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
    row[:, 5] = expo[np.clip(-k, 4, -_K_MIN) - 4] | sep
    row[:, 5] |= (n_digits == 17) * (last.astype(np.uint64) + np.uint64(ord("0")))
    text = row.view(np.uint8)
    point = np.flatnonzero((n_digits > whole) & ((k >= 0) | (k < -4)))
    text.reshape(-1)[point * _ROW + _POINT0 + 2 * whole[point] - 2] = ord(".")

    other = np.flatnonzero((~fast & (mag != 0.0)) | doubt)
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
    n_cols = table.shape[1]
    if table.size <= PER_VALUE_MAX:
        line = ",".join(["%.17g"] * n_cols) + "\n"
        return "".join(line % tuple(row) for row in table.tolist()).encode()
    tables = _tables()
    flat = np.ascontiguousarray(table).ravel()
    chunk = max(CHUNK // n_cols, 1) * n_cols
    sep = np.full(n_cols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    sep = np.tile(sep << _SEP_SHIFT, chunk // n_cols)
    return b"".join(
        _chunk_text(flat[lo : lo + chunk], sep[: min(chunk, flat.size - lo)], tables)
        for lo in range(0, flat.size, chunk)
    )
