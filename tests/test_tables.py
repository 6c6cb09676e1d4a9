"""csv_pieces against Python's own "%.17g", byte for byte."""

import io
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lmglab
from lmglab import tables
from lmglab.cli import main
from lmglab.tables import CHUNK, PER_VALUE_MAX, csv_pieces


def csv_body(table):
    """The text ``csv_pieces`` yields, gathered one piece at a time as a file
    takes it: ``b"".join`` would hold every piece and the whole at once."""
    body = io.BytesIO()
    body.writelines(csv_pieces(table))
    return body.getvalue()


def per_value_text(rows):
    """The reference: one "%.17g" per value, as the CLI wrote tables before."""
    return "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n" for row in rows
    ).encode()


def assert_exact(table):
    table = np.asarray(table, dtype=np.float64)
    assert csv_body(table) == per_value_text(table.tolist())
    # a small table is written value by value; repeat its rows so that the
    # vectorized kernel formats the same values too
    if 0 < table.size <= PER_VALUE_MAX:
        tiled = np.tile(table, (PER_VALUE_MAX // table.size + 1, 1))
        assert csv_body(tiled) == per_value_text(tiled.tolist())


def test_random_bit_patterns_and_log_uniform_values():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=7 * 16384, dtype=np.uint64, endpoint=False)
    # every exponent field, nan, inf and subnormals included; 7 columns do
    # not divide the chunk size, so rows straddle chunk boundaries
    assert_exact(bits.view(np.float64).reshape(-1, 7))
    sign = rng.choice([-1.0, 1.0], size=100000)
    assert_exact((sign * 10.0 ** rng.uniform(-45, 18, size=100000)).reshape(-1, 5))


def test_powers_of_ten_and_their_neighbours():
    values = []
    for e in range(-40, 18):
        for p in {float(f"1e{e}"), 10.0**e}:
            values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    values = np.array(values)
    assert_exact(np.column_stack([values, -values]))


def test_every_decimal_exponent():
    # k = -6 and -7 sit on either side of the switch from one exact product
    # (s = 16 - k <= 22) to two, and every k has its own lead, point and
    # exponent words
    rng = np.random.default_rng(11)
    for k in range(-40, 17):
        mantissa = rng.uniform(1.0, 10.0, size=600) * rng.choice([-1.0, 1.0], size=600)
        assert_exact((mantissa * 10.0**k).reshape(-1, 6))


@pytest.mark.parametrize("edge", [1e-39, 1e-27, 1e17])
def test_edges_of_the_fast_range(edge):
    near = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)]
    assert_exact([near, [-v for v in near]])


def test_special_values_and_python_numbers():
    rows = [
        (0.0, -0.0, math.nan),
        (math.inf, -math.inf, 5e-324),
        (1e300, -1e-300, 2.2250738585072014e-308),
        (3, -7, 12345678901234567),
        (np.float64(0.1), np.float64(-2.5e-17), 1.0 / 3.0),
    ]
    assert csv_body(rows) == per_value_text(rows)
    assert_exact(rows)


def test_exact_ties_round_half_even():
    assert csv_body([[1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125]]) == (
        b"1000000000000000.2,1000000000000000.8,100000000000000.12\n"
    )
    assert_exact([[1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125]])
    # 16-digit integers plus quarters and 15-digit ones plus eighths have an
    # 18th significant digit 5: exact ties at 17 digits
    rng = np.random.default_rng(7)
    whole16 = rng.integers(10**15, 2**51, size=2000).astype(np.float64)
    whole15 = rng.integers(10**14, 2**50 // 8, size=2000).astype(np.float64)
    eighths = rng.choice([0.125, 0.375, 0.625, 0.875], size=2000)
    ties = np.column_stack([whole16 + 0.25, whole16 + 0.75, whole15 + eighths])
    assert_exact(np.concatenate([ties, -ties]))


def test_ties_and_near_ties_below_one_millionth():
    # a / 2^(s+1) with a odd is an exact 17-digit tie when a 5^s / 2 lies in
    # [1e16, 1e17); below 1e-6 (s > 22) that holds for these nine values only
    ties = [a / 2.0 ** (s + 1) for s, odd in ((23, range(3, 17, 2)), (24, (1, 3)))
            for a in odd]
    rng = np.random.default_rng(13)
    # (D + 1/2) 10^(k-16), correctly rounded from its decimal text
    near = [float(f"{d}5e{k - 17}") for k in range(-27, -6)
            for d in rng.integers(10**16, 10**17, size=50).tolist()]
    # doubles m 2^-(c+s) with m 5^s = 2^(c-1) + delta (mod 2^c): their
    # m 5^s / 2^c lies delta / 2^c from a tie, down to 2^-53 away, where
    # the second product cannot tell the side and Python writes the value
    closest = [m * 2.0 ** (-c - s) for s in range(23, 44) for c in range(50, 60)
               for delta in range(-64, 65) if delta
               for m in [(2 ** (c - 1) + delta) * pow(5**s, -1, 2**c) % 2**c]
               if 2**52 <= m < 2**53 and 10**16 << c <= m * 5**s < 10**17 << c]
    values = np.array(ties + near + closest)
    assert_exact(np.column_stack(
        [values, np.nextafter(values, 0.0), -np.nextafter(values, math.inf)]
    ))


def test_integers_keep_their_trailing_zeros():
    whole = np.arange(-20000, 20000, 7, dtype=np.float64)
    assert_exact((whole * 10.0 ** (np.arange(whole.size) % 12)).reshape(-1, 5))


def test_zero_rows_and_one_column():
    assert csv_body(np.zeros((0, 3))) == b""
    assert csv_body(np.zeros((0, 1))) == b""
    rng = np.random.default_rng(3)
    assert_exact(rng.standard_normal((CHUNK + 3, 1)))


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=24), st.integers(1, 3))
def test_any_float_formats_like_python(values, n_cols):
    values += [0.0] * (-len(values) % n_cols)
    assert_exact(np.array(values).reshape(-1, n_cols))


def test_small_tables_format_value_by_value(monkeypatch):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
                2.2250738585072014e-308, 1e300, -1e-300, 0.1, 12345678901234567.0]
    rng = np.random.default_rng(17)
    scaled = rng.standard_normal(64) * 10.0 ** rng.integers(-30, 30, 64)
    pool = np.concatenate([specials, scaled])

    def refuse(*args):
        raise AssertionError("a small table reached the vectorized kernel")

    with monkeypatch.context() as patched:
        patched.setattr(tables, "_chunk_text", refuse)
        for rows in range(1, 17):
            for cols in range(1, 9):
                # every special value leads some tables, random ones fill the rest
                lead = np.roll(specials, -(rows * 8 + cols))
                flat = np.concatenate([lead, rng.choice(pool, size=rows * cols)])
                table = rng.permutation(flat[: rows * cols]).reshape(rows, cols)
                assert csv_body(table) == per_value_text(table.tolist())
    # one value more goes through the kernel
    calls = []
    original = tables._chunk_text
    monkeypatch.setattr(tables, "_chunk_text", lambda *a: calls.append(1) or original(*a))
    table = rng.choice(pool, size=(PER_VALUE_MAX + 1, 1))
    assert csv_body(table) == per_value_text(table.tolist())
    assert calls == [1]


def shaped_tables():
    """Tables of the shapes the CLI writes, and one of special values."""
    rng = np.random.default_rng(23)
    specials = np.array([math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                         2.2250738585072014e-308, 1e300, -0.0, 0.1, 1e-30])
    # special values in the first rows: the Python fallback writes their text
    # into the rows that later tables reuse
    special = np.concatenate([np.tile(specials, 30), rng.standard_normal(200)]).reshape(-1, 5)
    shape = (CHUNK // 7 + 40, 7)
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 17, shape)
    spectrum = np.column_stack([np.arange(2049) * 0.0245, np.abs(rng.standard_normal(2049)) * 1e-9])
    small = rng.standard_normal((16, 8))
    return {"special": special, "wide": wide, "spectrum": spectrum, "small": small}


def test_tables_in_any_order_share_nothing():
    shaped = shaped_tables()
    assert shaped["wide"].size > CHUNK and shaped["small"].size <= PER_VALUE_MAX
    for name in ["special", "wide", "spectrum", "small",
                 "spectrum", "small", "wide", "special", "spectrum"]:
        table = shaped[name]
        assert csv_body(table) == per_value_text(table.tolist()), name


def test_cached_lookup_arrays_are_read_only():
    # every later table of the process would be written with the changed bytes
    shaped = shaped_tables()
    assert csv_body(shaped["wide"]) == per_value_text(shaped["wide"].tolist())
    for a in tables._tables() + (tables._separators(7),):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0


def test_interleaved_pieces_use_separate_workspaces():
    # a table whose pieces are still being read keeps its workspace; one
    # formatted meanwhile must build its own
    shaped = shaped_tables()
    names = ["wide", "spectrum"]
    pieces = {name: [] for name in names}
    for both in itertools.zip_longest(*(csv_pieces(shaped[name]) for name in names)):
        for name, piece in zip(names, both):
            pieces[name] += [piece] if piece is not None else []
    for name in names:
        assert len(pieces[name]) > 1
        assert b"".join(pieces[name]) == per_value_text(shaped[name].tolist())


def test_threads_format_at_once():
    # more threads than cores, switching often: each call that finds the
    # pooled workspace taken must build its own
    shaped = shaped_tables()
    names = ["wide", "special", "spectrum", "wide"]
    expected = [per_value_text(shaped[name].tolist()) for name in names]
    start = threading.Barrier(len(names))
    results = [[] for _ in names]

    def work(i):
        start.wait()
        for _ in range(4):
            results[i].append(csv_body(shaped[names[i]]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(names))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[text] * 4 for text in expected]


def test_second_call_allocates_about_its_output():
    table = np.random.default_rng(29).standard_normal((4096, 5))
    csv_body(table)  # the first call builds the workspace
    tracemalloc.start()
    try:
        body = csv_body(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= len(body) + 256 * 1024


def test_kernel_keeps_under_two_megabytes(monkeypatch):
    # what the process holds after a table larger than a chunk: the pooled
    # workspace and the cached separators, not the fixed lookup tables
    monkeypatch.setattr(tables, "_POOL", [])
    tables._separators.cache_clear()
    tables._tables()
    table = np.random.default_rng(43).standard_normal((20000, 5))
    tracemalloc.start()
    try:
        csv_body(table)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert table.size > CHUNK and len(tables._POOL) == 1
    assert kept <= 1.5e6


def int64_lookup_tables():
    """The nine lookup arrays built as the kernel first built them: the digit
    groups and trailing zeros from 10000-entry int64 arithmetic."""
    pow10 = np.array([float(10**s) for s in range(23)])
    t = pow10 * float(2**27 + 1)
    pow10_hi = t - (t - pow10)
    pow10_lo = pow10 - pow10_hi
    n = np.arange(10000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    quads = (digits + ord("0")).astype("<u2").view("<u8")[:, 0]
    trailing = np.where(n % 10 != 0, 0, np.where(n % 100 != 0, 1,
                        np.where(n % 1000 != 0, 2, np.where(n != 0, 3, 4)))).astype(np.int8)
    slot = np.arange(20).reshape(5, 4)
    kept = (np.arange(18)[:, None, None] > slot) | (slot > 16)
    masks = (kept * np.uint16(0xFFFF)).astype("<u2").view("<u8")[..., 0]
    k = np.arange(-27, 17)
    point = np.select([(k >= 0) & (k < 16), k < -4], [9 + 2 * k, 9], 6)
    lead = np.zeros((6, 8), dtype=np.uint8)
    for k in range(-4, 0):
        text = b"0." + b"0" * (-k - 1)
        lead[k + 5, 1 : 1 + len(text)] = list(text)
    expo = np.zeros((24, 8), dtype=np.uint8)
    for minus_k in range(5, 28):
        expo[minus_k - 4, 2:6] = list(b"e-%02d" % minus_k)
    return (pow10, pow10_hi, pow10_lo, quads, trailing, masks,
            lead.view("<u8")[:, 0], expo.view("<u8")[:, 0], point)


def test_lookup_tables_match_the_int64_construction():
    built, reference = tables._tables(), int64_lookup_tables()
    assert len(built) == len(reference) == 9
    for i, (got, want) in enumerate(zip(built, reference)):
        assert got.dtype == want.dtype and got.shape == want.shape, i
        assert got.tobytes() == want.tobytes(), i


def test_cold_lookup_tables_peak_under_450_kib():
    # the digit tables come from a 16-bit grid, not 10000-entry int64
    # temporaries (a 783 KiB peak)
    tables._tables.cache_clear()
    tracemalloc.start()
    try:
        tables._tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 450 * 1024


def test_in_process_run_writes_what_a_fresh_process_writes(tmp_path):
    # the workspace has formatted tables of other shapes before this run
    for table in shaped_tables().values():
        csv_body(table)
    argv = ["spectrum", "--n", "60", "--h", "0.6", "--samples", "2048"]
    warm, fresh = tmp_path / "warm", tmp_path / "fresh"
    assert main([*argv, "--out", str(warm)]) == 0
    src = os.path.dirname(os.path.dirname(lmglab.__file__))
    subprocess.run([sys.executable, "-m", "lmglab", *argv, "--out", str(fresh)],
                   env=dict(os.environ, PYTHONPATH=src), check=True)
    names = sorted(os.listdir(warm))
    assert names == sorted(os.listdir(fresh))
    assert {"series.csv", "spectrum.csv", "lines.csv"} <= set(names)
    for name in names:
        warm_bytes, fresh_bytes = (path.joinpath(name).read_bytes() for path in (warm, fresh))
        if name == "summary.json":
            warm_bytes = warm_bytes.replace(str(warm).encode(), b"OUT")
            fresh_bytes = fresh_bytes.replace(str(fresh).encode(), b"OUT")
        assert warm_bytes == fresh_bytes, name


def test_table_wider_than_a_chunk():
    # a line longer than CHUNK values goes to Python whole
    table = np.random.default_rng(31).standard_normal((2, CHUNK + 5))
    assert csv_body(table) == per_value_text(table.tolist())


def test_non_finite_values_in_every_column_and_at_chunk_edges():
    # nan, inf and -inf take the Python route; 7 columns do not divide the
    # chunk, so rows straddle chunk edges, and each edge value is non-finite
    rng = np.random.default_rng(37)
    scale = 10.0 ** rng.integers(-30, 20, size=(1, 7))
    table = rng.standard_normal((2 * CHUNK // 7 + 5, 7)) * scale
    flat = table.reshape(-1)
    special = np.array([math.nan, -math.nan, math.inf, -math.inf])
    picks = rng.random(flat.size) < 0.1
    flat[picks] = rng.choice(special, size=np.count_nonzero(picks))
    edges = [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, flat.size - 1]
    flat[edges] = np.resize(special, len(edges))
    assert table.size > PER_VALUE_MAX
    assert not np.isfinite(table).all(axis=0).any()
    assert_exact(table)


def test_finite_table_takes_no_non_finite_pass(monkeypatch):
    # nan, inf and -inf share the one Python route of the rows outside the
    # fast range, so an all-finite chunk makes no pass to find them
    calls = []
    monkeypatch.setattr(np, "isfinite", lambda x, *a, **k: calls.append(x) or True)
    table = np.random.default_rng(41).standard_normal((CHUNK // 4 + 3, 5))
    assert csv_body(table) == per_value_text(table.tolist())
    assert calls == []
