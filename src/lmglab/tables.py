"""CSV bodies of float tables, formatted exactly like ``"%.17g"`` but vectorized.

``csv_pieces(table)`` yields the bytes of ``"%.17g,...,%.17g\\n" % row`` over
every row of a 2-D float64 table, in pieces for ``writelines``.  CPython
formats one float at a time (about 0.5 us per value); this module does the
same conversion over whole arrays.

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
goes to Python.  k comes from log10, which may miss it by one next to a
power of ten: a row whose exact value lies below 10^16 or whose D rounds
to 10^17 is in doubt too; +-0 is D = 0, k = 0.

Each value's text is laid out in one row of 24 uint16 slots (48 bytes) and
the zero bytes are dropped at the end:

    slot 0-3    sign ('-' or 0), then the lead "0." .. "0.000" when -4 <= k < 0
    slot 4-20   the 17 digits, each slot a digit byte and an empty point byte;
                stripped trailing zeros are masked to 0, and one scatter
                puts '.' after digit k (fixed notation) or digit 0
                (exponent), or into byte 6, which the lead word clears
    slot 21-22  "e-XX" when k < -4
    slot 23     the separator

This follows C's %g: fixed notation for -4 <= k <= 16, exponent notation
below, trailing zeros stripped.  The fast range is 1e-27 <= |x| < 1e17 plus
the signed zeros.  Every other row (nan, inf, subnormals, other tiny or
huge values) and every row in doubt takes one route: Python formats it and
its text is written into its row, so the output is exact for every
float64.  Tables of at most ``PER_VALUE_MAX`` values or more than
``CHUNK`` columns are formatted by Python alone.

Every step writes into one ``_Workspace`` of 1,376,256 bytes for ``CHUNK`` =
8192 values, kept for the process in a pool of one (a concurrent call
builds its own), through ``out=`` and ``take(..., out=, mode="clip")``, so
no table allocates or faults in chunk-sized temporaries; rows are
compacted ``SLICE`` at a time.  Rows share memory by lifetime, so 2 int
rows (k, D) serve where 12 did: s lives in D, ``rest`` in ``e2``, D - up in
float row 0, and once D is known ``hi``, ``lo``, the four digit groups and
``word`` in float rows 0-6.  The lookup tables come from a 16-bit digit grid.
"""

from __future__ import annotations

import functools

import numpy as np

from .spinspace import _readonly

# values converted per pass; sizes the workspace whatever the table size.
# 8192 formats as fast as 16384 with half the memory; 4096 is slower.
CHUNK = 1 << 13
# values compacted per piece: 48 KB of rows
SLICE = 1 << 10
# up to this many values, Python's "%.17g" (about 0.8 us a value) beats
# the kernel's fixed cost of about 100 numpy calls (0.15 ms a table)
PER_VALUE_MAX = 192

_FAST_MIN, _FAST_MAX = 1e-27, 1e17
_K_MIN = -27  # the double 1e-27 lies just above 10^-27
_S_EXACT = 22  # 10^22 is the largest power of ten that is exact in double
_SPLIT = float(2**27 + 1)  # Veltkamp's splitter for 53-bit doubles

_ROW = 48  # bytes of one value's row: 24 uint16 slots
_POINT0 = 9  # byte of the point slot after digit 0
_SEP_SHIFT = np.uint64(48)  # the separator's bit offset in the row's last word
_POOL: list[_Workspace] = []  # the idle workspace, if any


@functools.cache
def _tables():
    """Lookup tables, built on first use: the exact powers 10^s and their
    Veltkamp halves, the 4-digit groups as four (digit, point) slots and
    their trailing zeros, row masks, lead and exponent words, point bytes."""
    pow10 = np.array([float(10**s) for s in range(_S_EXACT + 1)])
    t = pow10 * _SPLIT
    pow10_hi = t - (t - pow10)
    pow10_lo = pow10 - pow10_hi

    # the four digits of n = 0 .. 9999, first digit first, on a 16-bit grid
    digits = np.indices((10, 10, 10, 10), dtype=np.uint16).reshape(4, -1)
    quads = np.add(digits.T, ord("0"), out=np.empty((10000, 4), "<u2")).view("<u8")[:, 0]
    zero = np.equal(digits[::-1], 0)  # trailing zeros: the zero run from the last digit
    trailing = np.logical_and.accumulate(zero, out=zero).sum(axis=0, dtype=np.int8)
    # words 1-5 of a row hold digits 0-16, digit j in slot 4 + j; masks[n]
    # keeps the first n digits and the exponent and separator slots 21-23
    slot = np.arange(20).reshape(5, 4)
    kept = (np.arange(18)[:, None, None] > slot) | (slot > 16)
    masks = (kept * np.uint16(0xFFFF)).astype("<u2").view("<u8")[..., 0]
    # the point's byte by k - _K_MIN: after digit k (fixed, k < 16) or digit
    # 0 (exponent); byte 6, which the lead word clears, where there is none
    k = np.arange(_K_MIN, 17)
    point = np.select([(k >= 0) & (k < 16), k < -4], [_POINT0 + 2 * k, _POINT0], 6)

    # word 0 by clip(k + 5, 0, 5): exponent, k = -4 .. -1, fixed
    lead = np.zeros((6, 8), dtype=np.uint8)
    for k in range(-4, 0):
        text = b"0." + b"0" * (-k - 1)
        lead[k + 5, 1 : 1 + len(text)] = list(text)
    # word 5 by clip(-k - 4, 0, -_K_MIN - 4): bytes 2-5 hold "e-XX" when k < -4
    expo = np.zeros((-_K_MIN - 4 + 1, 8), dtype=np.uint8)
    for minus_k in range(5, -_K_MIN + 1):
        expo[minus_k - 4, 2:6] = list(b"e-%02d" % minus_k)
    return tuple(map(_readonly, (pow10, pow10_hi, pow10_lo, quads, trailing, masks,
                                 lead.view("<u8")[:, 0], expo.view("<u8")[:, 0], point)))


@functools.lru_cache(maxsize=8)
def _separators(n_cols: int) -> np.ndarray:
    """The separator bits of the last row word over a chunk of whole lines."""
    sep = np.where(np.arange(n_cols) < n_cols - 1, ord(","), ord("\n")).astype(np.uint64)
    return _readonly(np.tile(sep << _SEP_SHIFT, CHUNK // n_cols))


class _Workspace:
    """The buffers one chunk of up to ``size`` values is formatted in."""

    def __init__(self, size: int):
        self.f = np.empty((11, size))
        self.i = np.empty((2, size), dtype=np.int64)
        self.b = np.empty((8, size), dtype=bool)
        self.row = np.empty((size, _ROW // 8), dtype=np.uint64)
        self.row_start = np.arange(size, dtype=np.int64) * _ROW


def _two_product(a, b, b_hi, b_lo, p, e, t, u):
    """p = fl(a b) and e with p + e = a b exactly (Dekker's exact product),
    for b split by Veltkamp as b_hi + b_lo; t and u are scratch."""
    np.multiply(a, b, out=p)
    a_hi = np.subtract(np.multiply(a, _SPLIT, out=t), np.subtract(t, a, out=u), out=u)
    a_lo = np.subtract(a, a_hi, out=t)
    # e = ((a_hi b_hi - p) + a_hi b_lo + a_lo b_hi) + a_lo b_lo
    np.subtract(np.multiply(a_hi, b_hi, out=e), p, out=e)
    e += np.multiply(a_hi, b_lo, out=u)
    e += np.multiply(a_lo, b_hi, out=u)
    e += np.multiply(a_lo, b_lo, out=t)


def _scaled_digits(ws, v, k, d, up, doubt):
    """round-half-even(v 10^(16-k)) into d for positive v in the fast range,
    whether it was rounded up and whether that is in doubt; exact wherever
    d >= 2^53 and not in doubt.  Works in ws.f[:10] and ws.b[:2], s in d."""
    m = v.size
    pow10s = _tables()[:3]
    b, b_hi, b_lo, p, f, t, u, a2, p2, e2 = (buf[:m] for buf in ws.f[:10])
    s = np.subtract(16, k, out=d)
    for table, out in zip(pow10s, (b, b_hi, b_lo)):
        table.take(s, out=out, mode="clip")  # 10^min(s, 22)
    _two_product(v, b, b_hi, b_lo, p, f, t, u)
    doubt[...] = False
    rows = np.greater(s, _S_EXACT, out=ws.b[0, :m]).nonzero()[0]
    if rows.size:
        # p + f = v 10^22 exactly; scale both by the exact 10^(s-22).  The
        # product of p is exact again and that of f rounds once, so f comes
        # within 2^-48 of v 10^s - p and only a near-tie is in doubt.
        c = rows.size
        b, b_hi, b_lo, t, u, a2, p2, e2 = (x[:c] for x in (b, b_hi, b_lo, t, u, a2, p2, e2))
        rest, near = e2.view(np.int64), ws.b[1, :c]  # e2 is written after the takes
        np.subtract(s.take(rows, out=rest, mode="clip"), _S_EXACT, out=rest)
        for table, out in zip(pow10s, (b, b_hi, b_lo)):
            table.take(rest, out=out, mode="clip")
        _two_product(p.take(rows, out=a2, mode="clip"), b, b_hi, b_lo, p2, e2, t, u)
        np.multiply(f.take(rows, out=a2, mode="clip"), b, out=a2)
        a2 += e2
        p[rows], f[rows] = p2, a2
        np.subtract(a2, np.rint(a2, out=e2), out=e2)
        np.greater(np.abs(e2, out=e2), 0.5 - 2.0**-46, out=near)
        doubt[rows] = near
    r = np.rint(f, out=ws.f[0, :m])
    np.greater(r, f, out=up)
    np.add(p, r, out=d, dtype=np.int64, casting="unsafe")


def _digits_and_exponent(ws, v, k, d, doubt):
    """D into d, k into k and the rows in doubt for positive v in the fast
    range: v = D 10^(k-16) to 17 digits on every row not in doubt.  Works
    in ws.f[:10] and ws.b[:4]."""
    n = v.size
    up, wrong = (buf[:n] for buf in ws.b[2:4])
    np.floor(np.log10(v, out=ws.f[0, :n]), out=k, casting="unsafe")
    np.maximum(np.minimum(k, 16, out=k), _K_MIN, out=k)
    _scaled_digits(ws, v, k, d, up, doubt)
    # log10 may miss k by one next to a power of ten: k is one too high
    # where the exact value, not the rounded one, lies below 10^16, and one
    # too low where D rounds to 10^17.  Such rows are in doubt.
    doubt |= np.less(np.subtract(d, up, out=ws.f[0, :n].view(np.int64)), 10**16, out=wrong)
    doubt |= np.greater_equal(d, 10**17, out=wrong)


def _chunk_text(ws, x, sep):
    """Lay the values x with separators sep out in their rows of ws.row,
    one pass per step over the whole chunk; returns those rows."""
    quads, trailing, masks, lead, expo, point = _tables()[3:]
    n = x.size
    v, row = ws.f[10, :n], ws.row[:n]
    k, d = (buf[:n] for buf in ws.i)
    fast, zero, doubt, flag = (buf[:n] for buf in ws.b[4:])

    np.abs(x, out=v)
    np.greater_equal(v, _FAST_MIN, out=fast)
    fast &= np.less(v, _FAST_MAX, out=flag)
    np.equal(v, 0.0, out=zero)
    # rows outside the fast range are digitized as 1.0 (k = 0) and zeros
    # become D = 0; the others are overwritten below
    np.copyto(v, 1.0, where=np.logical_not(fast, out=flag))
    _digits_and_exponent(ws, v, k, d, doubt)
    np.copyto(d, 0, where=zero)

    # D as four 4-digit groups g0..g3 and its last digit, which goes to d.
    # The exact products are done: hi, lo, the groups and word take float rows 0-6.
    int_rows = ws.f[:6, :n].view(np.int64)
    hi, lo, groups = int_rows[0], int_rows[1], int_rows[2:]
    word = ws.f[6, :n].view(np.uint64)
    g0, g1, g2, g3 = groups
    for a, b, q, r in ((d, 10**9, hi, lo), (hi, 10**4, g0, g1),
                       (lo, 10**5, g2, hi), (hi, 10, g3, d)):
        np.floor_divide(a, b, out=q)
        np.subtract(a, np.multiply(q, b, out=r), out=r)
    last = d
    for w, g in enumerate(groups, 1):
        row[:, w] = quads.take(g, out=word, mode="clip")
    expo.take(np.subtract(-4, k, out=lo), out=word, mode="clip")  # by clip(-k - 4, 0, 23)
    word |= sep
    word |= np.add(last, ord("0"), out=last).view(np.uint64)
    row[:, 5] = word
    where = point.take(np.subtract(k, _K_MIN, out=lo), out=hi, mode="clip")
    where += ws.row_start[:n]
    # a row ending in a zero digit drops its trailing zeros, but not those
    # before the point, and the point when no digit follows it
    rows = np.equal(last, ord("0"), out=flag).nonzero()[0]
    if rows.size:
        # zeros of g3, then of g2 if g3 is all zeros, and so on
        t0, t1, t2, t3 = trailing[groups.take(rows, axis=1)]
        zeros = 1 + t3 + (t3 == 4) * (t2 + (t2 == 4) * (t1 + (t1 == 4) * t0))
        whole = np.maximum(k[rows], 0) + 1
        n_digits = np.maximum(17 - zeros, whole)
        at = rows[:, None] * (_ROW // 8) + np.arange(1, _ROW // 8)
        row.reshape(-1)[at] &= masks.take(n_digits, axis=0)
        bare = rows[n_digits == whole]
        where[bare] = bare * _ROW + 6
    row.reshape(-1).view(np.uint8)[where] = ord(".")
    lead.take(np.add(k, 5, out=lo), out=word, mode="clip")  # by clip(k + 5, 0, 5)
    np.bitwise_or(word, ord("-"), out=word, where=np.signbit(x, out=flag))
    row[:, 0] = word

    np.logical_not(np.logical_or(fast, zero, out=flag), out=flag)
    other = np.logical_or(flag, doubt, out=flag).nonzero()[0]
    if other.size:
        text = np.array(["%.17g" % value for value in x[other].tolist()], f"S{_ROW}")
        row[other] = text.view("<u8").reshape(-1, _ROW // 8)  # 24 bytes at most
        row[other, -1] = sep[other]
    return row


def csv_pieces(table):
    """The bytes of ``"%.17g,...,%.17g\\n" % row`` over every row of a 2-D
    ``table``, in pieces for ``writelines``."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("csv_pieces takes a 2-D table")
    if table.size == 0:
        return
    n_cols = table.shape[1]
    if table.size <= PER_VALUE_MAX or n_cols > CHUNK:
        line = ",".join(["%.17g"] * n_cols) + "\n"
        yield "".join(line % tuple(row) for row in table.tolist()).encode()
        return
    flat = np.ascontiguousarray(table).ravel()
    sep = _separators(n_cols)
    try:
        ws = _POOL.pop()
    except IndexError:
        ws = _Workspace(CHUNK)
    try:
        for lo in range(0, flat.size, sep.size):
            values = flat[lo : lo + sep.size]
            row = _chunk_text(ws, values, sep[: values.size])
            for a in range(0, values.size, SLICE):
                yield row[a : a + SLICE].tobytes().translate(None, b"\0")
    finally:
        _POOL[:] = [ws]
