import math
import os
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievestats as ss
from sievestats import empirical, sieves
from sievestats.kinds import parse_kind
from sievestats.sieves import (
    DEFAULT_MAX_HI,
    LOG_UNITS,
    SIGNATURE_MAX_HI,
    base_primes,
    oracle_value,
    read_table_csv,
    sieve_table,
    table_from_segments,
    table_text,
    trial_factors,
    write_table_csv,
)

ALL_KINDS = [
    ss.PRIME,
    ss.TWIN_PRIME,
    ss.SQUAREFREE,
    ss.MOEBIUS,
    ss.LIOUVILLE,
    ss.PARITY_WEIGHT,
    ss.omega_equals(2),
    ss.VON_MANGOLDT,
]


def test_moebius_first_ten():
    table = sieve_table(ss.MOEBIUS, 1, 10)
    assert table.values.tolist() == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_moebius_at_one():
    assert sieve_table(ss.MOEBIUS, 1, 1).values.tolist() == [1]


def test_prime_indicator_first_ten():
    table = sieve_table(ss.PRIME, 1, 10)
    assert table.values.tolist() == [0, 1, 1, 0, 1, 0, 1, 0, 0, 0]


def test_parity_weight_first_six():
    table = sieve_table(ss.PARITY_WEIGHT, 1, 6)
    assert table.values.tolist() == [2, -1, -1, 0, -1, 2]


def test_twin_prime_small():
    table = sieve_table(ss.TWIN_PRIME, 1, 30)
    expected = [1 if n in (3, 5, 11, 17, 29) else 0 for n in range(1, 31)]
    assert table.values.tolist() == expected


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_sieve_matches_oracle(kind):
    hi = 3000
    table = sieve_table(kind, 1, hi)
    for n in range(1, hi + 1):
        expected = oracle_value(kind, n)
        if kind.is_integer_valued:
            assert table.values[n - table.lo] == expected, f"{kind} at n={n}"
        else:
            assert table.values[n - table.lo] == pytest.approx(expected, abs=1e-12)


def table_in_segments(kind, lo, hi, segment_size):
    """f on [lo, hi] as `sieve_table` builds it, from `segment_size`-value segments."""
    return table_from_segments(kind, lo, hi, sieves.iter_segments(kind, lo, hi, segment_size=segment_size))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_segmentation_invariance(kind):
    one = table_in_segments(kind, 1, 30000, 1 << 20)
    many = table_in_segments(kind, 1, 30000, 977)
    assert np.array_equal(one.values, many.values)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_offset_window_matches_full_sieve(kind):
    lo, hi = 12345, 14321
    window = table_in_segments(kind, lo, hi, 500)
    full = sieve_table(kind, 1, hi)
    assert np.array_equal(window.values, full.values[lo - 1 :])


def test_sieve_table_peak_memory():
    """Segments are written into one int8 table: about 1 byte per value.

    Collecting the segments and concatenating them holds every value twice,
    2 bytes per value.  What lies above 1 byte is the segment in flight,
    so n spans 32 segments to keep it a small share.
    """
    n = 2**25
    tracemalloc.start()
    try:
        sieve_table(ss.MOEBIUS, 1, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n, f"{peak / n:.2f} bytes per value"


def _segment_peak_mib(kind):
    """Traced peak of one 2^20-value segment at 10^8, in MiB."""
    lo = 10**8
    hi = lo + 2**20 - 1
    base = sieves.sieve_base(hi + 2)
    sieves._segment_values(kind, lo, hi, base)  # the wheel patterns are built once, on first use
    tracemalloc.start()
    try:
        sieves._segment_values(kind, lo, hi, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


@pytest.mark.parametrize(
    "kind, mib",
    [
        (ss.PRIME, 1.25),
        (ss.TWIN_PRIME, 2.25),
        (ss.SQUAREFREE, 1.25),
        (ss.MOEBIUS, 2.25),
        (ss.LIOUVILLE, 2.25),
        (ss.PARITY_WEIGHT, 2.25),
        (ss.omega_equals(2), 3.25),
        (ss.VON_MANGOLDT, 1.6),
    ],
    ids=str,
)
def test_segment_kernel_peak_memory(kind, mib):
    """One 2^20-value segment at 10^8 holds its int8 values (1 MiB), the prime flags they come from
    (twin primes), or the uint8 log accumulator and at most one segment-sized temporary (moebius,
    Liouville, parity weight; omega adds its int8 counts).  No kernel returns a cast copy of its
    own buffer; those copies cost one more MiB for primes, twin primes, moebius and the parity
    weight."""
    peak = _segment_peak_mib(kind)
    assert peak < mib, f"{peak:.2f} MiB"


@pytest.mark.parametrize(
    "kind, mib",
    [
        (ss.PRIME, 1.2),
        (ss.TWIN_PRIME, 1.2),
        (ss.SQUAREFREE, 1.15),
        (ss.MOEBIUS, 1.5),
        (ss.LIOUVILLE, 1.5),
        (ss.PARITY_WEIGHT, 1.5),
        (ss.omega_equals(2), 2.5),
        (ss.VON_MANGOLDT, 1.5),
    ],
    ids=str,
)
def test_segment_kernel_peak_memory_in_pieces(kind, mib):
    """The same segment without a segment-sized temporary: the prime flags (primes, twin primes)
    or the uint8 log accumulator (moebius, Liouville, parity weight; omega adds its int8 counts).
    Masks and the twin `&` take 2^16 values at a time, and the batched strikes' indices at most
    STRIKE_HITS int64s.  Measured: 1.11 MiB for primes and twin primes, 1.06 squarefree, 1.42 the
    signature kinds, 2.42 omega = 2, 1.44 von Mangoldt; before the pieces, a whole-segment mask
    or `&` cost one more MiB."""
    peak = _segment_peak_mib(kind)
    assert peak < mib, f"{peak:.2f} MiB"


def test_cross_kind_consistency(mu_table, sf_table, pw_table):
    mu = mu_table.values
    sf = sf_table.values
    pw = pw_table.values
    lv = sieve_table(ss.LIOUVILLE, 1, 10**6).values
    assert np.array_equal(mu == 0, sf == 0)
    assert np.array_equal(pw == 0, sf == 0)
    squarefree = sf == 1
    assert np.array_equal(mu[squarefree], lv[squarefree])


def test_alphabets_respected(mu_table, pw_table):
    assert set(np.unique(mu_table.values)) <= {-1, 0, 1}
    assert set(np.unique(pw_table.values)) <= {-1, 0, 2}


def test_squarefree_count_identity():
    n = 20000
    sf = sieve_table(ss.SQUAREFREE, 1, n).values
    # Direct marking of multiples of p^2, independent of the sieve internals.
    struck = np.zeros(n + 1, dtype=bool)
    p = 2
    while p * p <= n:
        if all(p % q for q in range(2, p)):
            struck[p * p :: p * p] = True
        p += 1
    assert int(sf.sum()) == n - int(struck[1:].sum())


def test_factor_signature_examples():
    assert ss.factor_signature(1) == ss.FactorSignature(0, 0, True)
    assert ss.factor_signature(12) == ss.FactorSignature(2, 3, False)
    assert ss.factor_signature(30) == ss.FactorSignature(3, 3, True)


def test_factor_signature_properties():
    for n in range(1, 500):
        sig = ss.factor_signature(n)
        assert sig.omega <= sig.big_omega
        assert sig.squarefree == (sig.omega == sig.big_omega)


def test_factor_signature_rejects_zero():
    with pytest.raises(ValueError):
        ss.factor_signature(0)
    with pytest.raises(ValueError):
        trial_factors(0)


def test_range_validation():
    with pytest.raises(ValueError, match="invalid range"):
        sieve_table(ss.MOEBIUS, 10, 2)
    with pytest.raises(ValueError, match="exceeds the configured maximum"):
        sieve_table(ss.MOEBIUS, 1, 10**10)
    with pytest.raises(ValueError, match="segment_size must be positive"):
        next(sieves.iter_segments(ss.MOEBIUS, 1, 10**6, segment_size=0))
    with pytest.raises(ValueError, match="k >= 1"):
        ss.omega_equals(0)


def test_kind_parsing_round_trip():
    for kind in ALL_KINDS:
        assert parse_kind(str(kind)) == kind
    with pytest.raises(ValueError):
        parse_kind("totient")


@pytest.mark.parametrize("kind", [ss.MOEBIUS, ss.VON_MANGOLDT], ids=str)
def test_csv_cache_round_trip(kind, tmp_path):
    hi = 2**20 + 500  # read back as two segments
    table = sieve_table(kind, 3, hi)
    path = tmp_path / "cache.csv"
    text = write_table_csv(table, path)
    loaded = read_table_csv(path)
    assert loaded.kind == kind
    assert (loaded.lo, loaded.hi) == (3, hi)
    assert np.array_equal(loaded.values, table.values)
    assert table_text(loaded) == text


@settings(max_examples=30, deadline=None, database=None)
@given(
    kind=st.one_of(st.sampled_from(ALL_KINDS), st.integers(1, 6).map(ss.omega_equals)),
    bounds=st.lists(st.integers(1, 10**5), min_size=2, max_size=2).map(sorted),
)
def test_csv_cache_round_trip_property(kind, bounds, tmp_path_factory):
    lo, hi = bounds
    table = sieve_table(kind, lo, hi)
    path = tmp_path_factory.mktemp("cache") / "table.csv"
    text = write_table_csv(table, path)
    loaded = read_table_csv(path)
    assert (loaded.kind, loaded.lo, loaded.hi) == (kind, lo, hi)
    assert np.array_equal(loaded.values, table.values)
    assert table_text(loaded) == text


def test_csv_cache_header_line(tmp_path):
    table = sieve_table(ss.omega_equals(3), 1, 5)
    path = tmp_path / "omega.csv"
    write_table_csv(table, path)
    assert path.read_text().splitlines()[0] == "omega_equals:3,1,5"


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k.is_integer_valued], ids=str)
def test_table_text_renders_integers_as_str(kind):
    table = sieve_table(kind, 10**6 - 2000, 10**6)
    body = "\n".join(map(str, table.values.tolist()))
    assert table_text(table) == f"{kind},{10**6 - 2000},{10**6}\n{body}\n"


#: Every kind, with omega = k for k = 1..6.
RENDER_KINDS = [k for k in ALL_KINDS if k.tag != "omega_equals"] + [ss.omega_equals(k) for k in range(1, 7)]


def _reference_line(kind, v):
    if kind.is_integer_valued:
        return f"{v}\n"
    return f"{v:.17g}\n" if v else "0\n"


def _dense(values):
    """A segment's values as one array: a von Mangoldt `SparseSegment`'s weights scattered into zeros."""
    if isinstance(values, np.ndarray):
        return values
    dense = np.zeros(len(values))
    dense[values.offsets] = values.weights
    return dense


def _reference_pieces(kind, lo, hi, segments):
    """`table_pieces` as the format defines it, one value at a time."""
    pieces = ("".join(_reference_line(kind, v) for v in _dense(values).tolist()) for _, _, values in segments)
    return [f"{kind},{lo},{hi}\n", *pieces]


@settings(max_examples=80, deadline=None, database=None)
@given(
    kind=st.sampled_from(RENDER_KINDS),
    lo=st.integers(1, 10**6),
    segment_size=st.integers(1, 5000),
    segments=st.integers(1, 3),
    short=st.integers(0, 4999),
)
def test_table_pieces_match_per_value_lines(kind, lo, segment_size, segments, short):
    hi = lo + segments * segment_size - 1 - short % segment_size  # the last segment may be short
    parts = list(sieves.iter_segments(kind, lo, hi, segment_size=segment_size))
    assert list(sieves.table_pieces(kind, lo, hi, parts)) == _reference_pieces(kind, lo, hi, parts)


#: von Mangoldt's zero and logs of primes; integer kinds use their alphabets.
LOGS = (0.0, math.log(2), math.log(3), math.log(999_983))


@pytest.mark.parametrize("kind, value", [(k, v) for k in RENDER_KINDS for v in k.alphabet() or LOGS], ids=str)
def test_table_pieces_render_each_value_at_segment_ends(kind, value):
    """A segment that starts and ends with `value`, with every other value between; a second
    segment repeats it."""
    between = kind.alphabet() or LOGS
    values = np.array([value, *between, *between[::-1], value], dtype=np.int8 if kind.alphabet() else float)
    n = len(values)
    if not kind.alphabet():
        values = sieves.SparseSegment.of(values)
    parts = [(1, n, values), (n + 1, 2 * n, values)]
    assert list(sieves.table_pieces(kind, 1, 2 * n, parts)) == _reference_pieces(kind, 1, 2 * n, parts)


def _outside(kind):
    """Integer values outside `kind`'s alphabet: its gaps, its least - 1, its largest + 1 and the
    int8 extremes."""
    alphabet = kind.alphabet()
    return sorted({*range(alphabet[0] - 1, alphabet[-1] + 2), -128, 127} - set(alphabet))


@pytest.mark.parametrize(
    "kind, value", [(k, v) for k in RENDER_KINDS if k.is_integer_valued for v in _outside(k)], ids=str
)
def test_table_pieces_refuse_values_outside_the_alphabet(kind, value):
    values = np.array([*kind.alphabet(), value, *kind.alphabet()], dtype=np.int8)
    with pytest.raises(ValueError, match=re.escape(f"{kind} takes no value {value};")):
        list(sieves.table_pieces(kind, 1, len(values), [(1, len(values), values)]))


SLICES = 2 * sieves.TAKE_VALUES + 5  # values in three render slices, the last a short one


@pytest.mark.parametrize("at", [None, sieves.TAKE_VALUES, SLICES - 1], ids=["none", "second", "last"])
def test_table_pieces_render_and_check_every_slice(at):
    """A segment renders TAKE_VALUES values at a time: the text runs on across slices, and a
    value outside the alphabet is refused in whichever slice holds it."""
    values = np.random.default_rng(at).choice(np.array([-1, 0, 1], dtype=np.int8), SLICES)
    parts = [(1, SLICES, values)]
    if at is None:
        assert list(sieves.table_pieces(ss.MOEBIUS, 1, SLICES, parts)) == _reference_pieces(ss.MOEBIUS, 1, SLICES, parts)
        return
    values[at] = 5
    with pytest.raises(ValueError, match="moebius takes no value 5;"):
        list(sieves.table_pieces(ss.MOEBIUS, 1, SLICES, parts))


@pytest.mark.parametrize(
    "values, refused",
    [
        (np.array([-1, 0, 1], dtype=np.int64), None),
        (np.array([1.0, -1.0, 0.0]), None),
        (np.array([1, 257], dtype=np.int16), "257"),  # its low byte is 1
        (np.array([1, -255], dtype=np.int64), "-255"),  # its low byte is 1
        (np.array([0, 0.5]), "0.5"),
        (np.array([0, np.nan]), "nan"),
    ],
    ids=["int64", "float", "int16-257", "int64--255", "float-0.5", "nan"],
)
def test_table_pieces_read_wider_arrays_by_value(values, refused):
    pieces = sieves.table_pieces(ss.MOEBIUS, 1, len(values), [(1, len(values), values)])
    if refused is None:
        assert "".join(pieces) == f"moebius,1,{len(values)}\n" + "".join(f"{int(v)}\n" for v in values)
    else:
        with pytest.raises(ValueError, match=f"moebius takes no value {refused};"):
            list(pieces)


def test_csv_cache_rejects_out_of_alphabet_values(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("moebius,1,3\n1\n300\n-1\n")
    with pytest.raises(ValueError, match=re.escape("line 3 holds '300\\n', where table writes '-1\\n'")):
        read_table_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("moebius, 1,3\n1\n-1\n-1\n", "line 1 holds 'moebius, 1,3\\n', where table writes 'moebius,1,3\\n'"),
        ("moebius,1,3\n1\n01\n-1\n", "line 3 holds '01\\n', where table writes '-1\\n'"),
        ("moebius,1,3\n1\n-1\n-1", "line 4 holds '-1', where table writes '-1\\n'"),
        ("moebius,1,3\n1\n-1\n", "ends at line 4, where table writes '-1\\n'"),
        ("moebius,1,2\n1\n-1\n-1\n", "line 4 holds '-1\\n', where table ends"),
        ("moebius,1,3\r\n1\r\n-1\r\n-1\r\n", "line 1 holds 'moebius,1,3\\r\\n', where table writes 'moebius,1,3\\n'"),
        ("moebius,1,1000000000\n1\n-1\n-1\n", "ends at line 5, where table writes '0\\n'"),
        ("von_mangoldt,1,3\n0\n0.6931471805599453\n1.0986122886681098\n",
         "line 3 holds '0.6931471805599453\\n', where table writes '0.69314718055994529\\n'"),
        ("von_mangoldt,1,2\n0\n-0.69314718055994529\n",
         "line 3 holds '-0.69314718055994529\\n', where table writes '0.69314718055994529\\n'"),
        ("von_mangoldt,1,2\n0\nnan\n", "line 3 holds 'nan\\n', where table writes '0.69314718055994529\\n'"),
    ],
    ids=["header", "leading-zero", "no-final-newline", "short", "long", "crlf", "short-of-a-far-hi",
         "repr-float", "negative", "nan"],
)
def test_csv_cache_refuses_lines_the_format_does_not_write(text, message, tmp_path):
    """Each file is refused at its first difference from `table_text`, before sieving past
    the first segment: a header claiming 10^9 values over three lines is refused at once."""
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(message)):
        read_table_csv(path)
    assert time.perf_counter() - start < 1


ACROSS_A_READ = sieves.CHUNK_CHARS // 3 + 1  # the 3-character line that holds character CHUNK_CHARS


@pytest.mark.parametrize("line", [1, ACROSS_A_READ, ACROSS_A_READ + 1, 2 * ACROSS_A_READ],
                         ids=["first", "across-a-read", "after-a-read", "last"])
def test_checked_pieces_names_the_line_that_differs(line, tmp_path):
    """A piece of 3-character lines more than two reads long has a line across each read
    boundary; a refusal names the whole line, numbered from the header, wherever it is."""
    body = ["ab\n"] * (2 * ACROSS_A_READ)
    pieces = ["header\n", "".join(body)]
    body[line - 1] = "aX\n"
    path = tmp_path / "cache.csv"
    path.write_text("header\n" + "".join(body))
    with open(path, newline="") as fh, pytest.raises(ValueError) as refusal:
        list(sieves.checked_pieces(fh, pieces))
    assert str(refusal.value) == f"cache file {path} line {line + 1} holds 'aX\\n', where table writes 'ab\\n'"


def test_checked_pieces_names_a_line_past_the_first_read_of_the_third_piece(tmp_path):
    """Lines are counted only at a refusal, by reading the matched pieces again: a difference
    past the first CHUNK_CHARS characters of the third piece is named by its line in the file."""
    second, third = ["ab\n"] * 7, ["cde\n"] * (sieves.CHUNK_CHARS // 4 + 10)
    pieces = ["header\n", "".join(second), "".join(third)]
    line = sieves.CHUNK_CHARS // 4 + 5  # of the third piece, in its second read
    third[line - 1] = "cXe\n"
    path = tmp_path / "cache.csv"
    path.write_text("header\n" + "".join(second) + "".join(third))
    with open(path, newline="") as fh, pytest.raises(ValueError) as refusal:
        list(sieves.checked_pieces(fh, pieces))
    assert str(refusal.value) == f"cache file {path} line {1 + 7 + line} holds 'cXe\\n', where table writes 'cde\\n'"


def _failing_rename(src, dst):
    assert Path(src).stat().st_size > 0  # fails after the temp file is written
    raise OSError("disk full")


def test_csv_cache_failed_write_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "replace", _failing_rename)
    path = tmp_path / "partial.csv"
    with pytest.raises(OSError, match="disk full"):
        write_table_csv(sieve_table(ss.MOEBIUS, 1, 5), path)
    assert list(tmp_path.iterdir()) == []


def test_csv_cache_failed_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.csv"
    write_table_csv(sieve_table(ss.MOEBIUS, 1, 5), path)
    before = path.read_bytes()
    monkeypatch.setattr(os, "replace", _failing_rename)
    with pytest.raises(OSError, match="disk full"):
        write_table_csv(sieve_table(ss.MOEBIUS, 1, 10), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# Factor-signature kernel: moebius, parity weight, liouville, omega_equals
# ---------------------------------------------------------------------------

SIGNATURE_KINDS = [
    ss.MOEBIUS,
    ss.PARITY_WEIGHT,
    ss.LIOUVILLE,
    ss.omega_equals(1),
    ss.omega_equals(2),
    ss.omega_equals(3),
]

# The first prime above isqrt(10**9 + 2) = 31622: the smallest cofactor prime
# a window ending at 10**9 leaves unsieved.
FIRST_UNSIEVED = 31627


def _assert_matches_oracle(kind, lo, hi, points=None, segment_size=sieves.DEFAULT_SEGMENT_SIZE):
    table = table_in_segments(kind, lo, hi, segment_size)
    for n in range(lo, hi + 1) if points is None else points:
        expected = oracle_value(kind, n)
        if not kind.is_integer_valued:
            expected = pytest.approx(expected, abs=1e-12)
        assert table.values[n - table.lo] == expected, f"{kind} at n={n} in [{lo}, {hi}]"


def test_first_unsieved_prime_above_1e9_base():
    assert math.isqrt(10**9 + 2) == 31622
    assert [c for c in range(31623, FIRST_UNSIEVED + 1) if trial_factors(c) == [(c, 1)]] == [
        FIRST_UNSIEVED
    ]


@pytest.mark.parametrize("kind", SIGNATURE_KINDS, ids=str)
@pytest.mark.parametrize(
    "center",
    [
        223092870,  # 2*3*5*...*23, the largest omega (9) below 10**9
        2**29,  # the largest big omega (29) below 10**9
        3**18,  # the largest power of 3 below 10**9
        2**14 * FIRST_UNSIEVED,  # smallest log deficit: m = 2^14 next to q
    ],
)
def test_signature_extreme_factorizations(kind, center):
    _assert_matches_oracle(kind, center - 12, center + 12)
    _assert_matches_oracle(kind, center - 12, center + 12, segment_size=5)


@pytest.mark.parametrize("kind", SIGNATURE_KINDS, ids=str)
def test_signature_cofactor_just_above_the_base_primes(kind):
    # p*q with p the largest prime that fits and q the first unsieved prime;
    # the window ends at 10**9 so the base primes stop at 31622.
    n = 31607 * FIRST_UNSIEVED
    points = [*range(n - 6, n + 7), *range(10**9 - 12, 10**9 + 1)]
    _assert_matches_oracle(kind, n - 6, 10**9, points=points)


@pytest.mark.parametrize("kind", SIGNATURE_KINDS + [ss.PRIME, ss.TWIN_PRIME, ss.VON_MANGOLDT], ids=str)
@pytest.mark.parametrize("p", [2, 3, 17, 19, 23, 997, 31607])
def test_signature_prime_square_at_segment_edges(kind, p):
    # The prime flags of the last three kinds strike each p >= 17 from p^2 or from the first
    # odd multiple at or above lo: windows start at odd and even lo below, at and above p^2,
    # and reach past p(p + 1) to p(p + 2).
    square = p * p
    for segment_size in (1, 2, 3, 4, 5):
        _assert_matches_oracle(kind, max(1, square - 4), square + 4, segment_size=segment_size)
    hi = square + 2 * p + 1
    for lo in range(max(1, square - 4), square + 3):
        near = {*range(square - 4, square + 5), *range(square + p - 1, square + p + 2), *range(hi - 2, hi + 1)}
        _assert_matches_oracle(kind, lo, hi, points=sorted(n for n in near if n >= lo))


@pytest.mark.parametrize("kind", SIGNATURE_KINDS, ids=str)
def test_signature_segment_size_one(kind):
    _assert_matches_oracle(kind, 1, 300, segment_size=1)


@pytest.mark.parametrize("kind", SIGNATURE_KINDS, ids=str)
def test_signature_tiny_ranges(kind):
    for hi in range(1, 14):
        for lo in range(1, hi + 1):
            _assert_matches_oracle(kind, lo, hi)
            _assert_matches_oracle(kind, lo, hi, segment_size=1)


@pytest.mark.parametrize("kind", [ss.LIOUVILLE, ss.omega_equals(1)], ids=str)
def test_signature_largest_powers_below_the_cap(kind):
    # 2^35 and 3^22 put 245 and 242 units in the uint8 accumulator.  They lie
    # above DEFAULT_MAX_HI, so the segment kernel is called directly.
    for n in (2**35, 3**22):
        values = sieves._segment_values(kind, n, n, sieves.sieve_base(n + 2))
        assert values.tolist() == [oracle_value(kind, n)], f"{kind} at n={n}"


def test_signature_cap_is_refused_beyond_the_uint8_bound():
    assert 7 * math.log2(SIGNATURE_MAX_HI) <= 255
    assert DEFAULT_MAX_HI <= SIGNATURE_MAX_HI
    with pytest.raises(ValueError, match="exceeds the configured maximum"):
        sieves.validate_range(1, SIGNATURE_MAX_HI + 1)


def test_signature_log_units_are_far_from_rounding_ties():
    # The kernel rounds LOG_UNITS*log2(p) up in floating point.  Away from 2
    # no prime the cap can need lies within 1e-9 of an integer, far beyond
    # the rounding error, so the units are the exact ceilings.  Each unit is
    # also at most 7 per bit, which is what the uint8 bound relies on.
    assert (LOG_UNITS - 2) * math.log2(3) >= LOG_UNITS  # the deficit premise
    for p in base_primes(math.isqrt(SIGNATURE_MAX_HI)).tolist()[1:]:
        x = LOG_UNITS * math.log2(p)
        assert abs(x - round(x)) > 1e-9, p
        assert (math.ceil(x) | 1) <= 7 * math.log2(p), p


@settings(max_examples=60, deadline=None, database=None)
@given(
    kind=st.sampled_from(SIGNATURE_KINDS),
    lo=st.integers(1, 2 * 10**5),
    length=st.integers(1, 400),
    segment_size=st.integers(1, 512),
)
def test_signature_kinds_match_oracle_on_random_windows(kind, lo, length, segment_size):
    hi = min(lo + length - 1, 2 * 10**5)
    _assert_matches_oracle(kind, lo, hi, segment_size=segment_size)


def test_wheel_patterns_match_their_definitions():
    units, count, coprime = sieves._wheels()
    residues = range(2 * sieves.WHEEL)
    divisors = [[p for p in sieves.WHEEL_PRIMES if r % p == 0] for r in residues]
    assert sieves.WHEEL == 30030 == math.prod(sieves.WHEEL_PRIMES)
    assert units.dtype == np.uint8 and count.dtype == np.int8 and coprime.dtype == bool
    assert units.tolist() == [sum(math.ceil(LOG_UNITS * math.log2(p)) | 1 for p in d) for d in divisors]
    assert count.tolist() == [len(d) for d in divisors]
    assert coprime.tolist() == [math.gcd(r, sieves.WHEEL) == 1 for r in residues]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
@pytest.mark.parametrize("k", [1, 2, 33300])  # 30030 * 33300 = 999999000, the last edge below the cap
def test_windows_across_wheel_edges_match_oracle(kind, k):
    # Each segment starts from the wheel patterns at the residue of its lo; a
    # window across k * 30030 reads them across the end of a period.
    edge = k * sieves.WHEEL
    for segment_size in (1, 3, 7, 40, 41):
        _assert_matches_oracle(kind, edge - 20, edge + 20, segment_size=segment_size)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_windows_from_the_wheel_primes_match_oracle(kind):
    # From lo <= 13 the first segment holds wheel primes, which the patterns
    # strike as multiples; segments of 30029-30031 values are copied from the
    # patterns or tiled past one period.
    for lo in (1, 2, 3, 5, 12, 13):
        for segment_size in (1, 2, 3, 4, 5):
            _assert_matches_oracle(kind, lo, 60, segment_size=segment_size)
    hi = 3 * sieves.WHEEL + 50
    for segment_size in (sieves.WHEEL - 1, sieves.WHEEL, sieves.WHEEL + 1):
        for lo in (1, 13):
            starts = [*range(lo, hi + 1, segment_size), *range(0, hi + 1, sieves.WHEEL)]
            points = sorted({n for s in starts for n in range(s - 20, s + 20) if lo <= n <= hi})
            _assert_matches_oracle(kind, lo, hi, points=[*range(lo, 300), *points], segment_size=segment_size)


#: Prime powers that start or end drawn windows; 2^20 and 2^21 end the first two default segments.
PRIME_POWERS = (2, 3, 4, 8, 9, 25, 121, 3**13, 7**7, 1021**2, 2**20, 2**21)


@st.composite
def von_mangoldt_windows(draw):
    """(lo, hi, segment_size): from lo = 1, with segments that end at 2^20 or 2^21, or with a
    prime power at the window's first or last offset."""
    size = draw(st.integers(1, 700), label="segment_size")
    length = draw(st.integers(1, 1500), label="length")
    way = draw(st.sampled_from(["one", "edge", "first", "last"]), label="way")
    if way == "one":
        return 1, length, size
    if way == "edge":  # the edge ends the first, second or third segment, and more may follow
        edge = draw(st.sampled_from([2**20, 2**21]), label="edge")
        lo = edge - size * draw(st.integers(1, 3), label="segments to the edge") + 1
        return lo, edge + draw(st.integers(0, 2 * size), label="past the edge"), size
    q = draw(st.sampled_from(PRIME_POWERS), label="prime power")
    return (q, q + length - 1, size) if way == "first" else (max(1, q - length + 1), q, size)


@settings(max_examples=80, deadline=None, database=None)
@given(window=von_mangoldt_windows())
def test_von_mangoldt_sparse_segments_match_dense_reference(window):
    """Each segment's offsets strictly ascend inside it, its weights are the oracle's logs there,
    and the oracle is 0 at every other value; value counts and `table` lines equal those of the
    dense values byte for byte."""
    lo, hi, size = window
    kind = ss.VON_MANGOLDT
    segments = list(sieves.iter_segments(kind, lo, hi, segment_size=size))
    dense, where = np.zeros(hi - lo + 1), []
    for a, b, segment in segments:
        assert isinstance(segment, sieves.SparseSegment) and len(segment) == b - a + 1
        assert segment.offsets.dtype == np.int64 and segment.weights.dtype == np.float64
        assert np.all(np.diff(segment.offsets) > 0)
        assert segment.offsets.size == 0 or 0 <= segment.offsets[0] <= segment.offsets[-1] <= b - a
        dense[segment.offsets + (a - lo)] = segment.weights
        where += (segment.offsets + a).tolist()
    expected = [oracle_value(kind, n) for n in range(lo, hi + 1)]
    assert where == [n for n, v in zip(range(lo, hi + 1), expected) if v]
    assert dense.tolist() == pytest.approx(expected, abs=1e-12)
    uniq, counts = empirical.value_counts(kind, segments)
    want_uniq, want_counts = np.unique(dense, return_counts=True)
    assert uniq.tobytes() == want_uniq.tobytes() and counts.tolist() == want_counts.tolist()
    lines = "".join(f"{v:.17g}\n" if v else "0\n" for v in dense.tolist())
    assert "".join(sieves.table_pieces(kind, lo, hi, segments)) == f"{kind},{lo},{hi}\n{lines}"
    assert table_in_segments(kind, lo, hi, size).values.tobytes() == dense.tobytes()


def test_von_mangoldt_segment_allocates_no_dense_floats():
    """A 2^20-value segment near 10^9 holds about 50000 prime powers: its offsets and weights,
    not an 8 MiB float64 array.  Measured peak 1.39 MiB under tracemalloc (the prime flags and
    the offsets); 9.39 MiB when the segment was a float64 array."""
    hi = 10**9
    lo = hi - (1 << 20) + 1
    base = sieves.sieve_base(hi + 2)
    tracemalloc.start()
    try:
        segment = sieves._von_mangoldt_segment(lo, hi, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(segment) == 1 << 20 and len(segment.offsets) < 60000
    assert peak < 4 << 20, f"{peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# Batched strikes: every kernel against itself with each step strided
# ---------------------------------------------------------------------------


def _segment_bytes(kind, lo, hi, base):
    values = sieves._segment_values(kind, lo, hi, base)
    if isinstance(values, sieves.SparseSegment):
        return values.offsets.tobytes() + values.weights.tobytes()
    return values.dtype.str.encode() + values.tobytes()


def _dense(values):
    if isinstance(values, sieves.SparseSegment):
        dense = np.zeros(len(values))
        dense[values.offsets] = values.weights
        return dense
    return values


def _batched_and_strided(kind, lo, hi, base, monkeypatch):
    """The kernel's bytes, then its bytes with both thresholds above every step, each strided."""
    batched = _segment_bytes(kind, lo, hi, base)
    with monkeypatch.context() as mp:
        mp.setattr(sieves, "ADD_BATCH_STEP", 1 << 62)
        mp.setattr(sieves, "ZERO_BATCH_STEP", 1 << 62)
        return batched, _segment_bytes(kind, lo, hi, base)


@pytest.mark.parametrize("hi", [10**8, 10**9])
@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_batched_strikes_match_strided_writes(kind, hi, monkeypatch):
    lo = hi - (1 << 20) + 1
    base = sieves.sieve_base(hi + 2)
    if hi == 10**9:  # the moebius primes' batched hits span several scatters
        primes = base.primes[base.primes.searchsorted(sieves.ADD_BATCH_STEP) :]
        assert ((1 << 20) // primes).sum() > 4 * sieves.STRIKE_HITS
    batched, strided = _batched_and_strided(kind, lo, hi, base, monkeypatch)
    assert batched == strided


@pytest.mark.parametrize("kind", SIGNATURE_KINDS, ids=str)
def test_batched_strikes_at_the_signature_cap(kind, monkeypatch):
    hi = SIGNATURE_MAX_HI
    lo = hi - (1 << 20) + 1
    base = sieves.sieve_base(hi + 2)
    batched, strided = _batched_and_strided(kind, lo, hi, base, monkeypatch)
    assert batched == strided
    values = sieves._segment_values(kind, lo, hi, base)
    points = [hi, *np.random.default_rng(36).integers(lo, hi, 19).tolist()]
    assert [int(values[n - lo]) for n in points] == [oracle_value(kind, n) for n in points]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=str)
def test_batched_strikes_on_segments_as_long_as_the_thresholds(kind, monkeypatch):
    """From lo = ZERO_BATCH_STEP^2 = 2^30 every kernel has steps at and above both thresholds.  On
    segments of T - 1, T and T + 1 values for each threshold T, the steps near T, such as the
    prime 8191 and the power 2^13 of the add path, hit the segment once or twice."""
    lo = sieves.ZERO_BATCH_STEP**2
    base = sieves.sieve_base(lo + 2 * sieves.ZERO_BATCH_STEP)
    for threshold in (sieves.ADD_BATCH_STEP, sieves.ZERO_BATCH_STEP):
        for size in (threshold - 1, threshold, threshold + 1):
            hi = lo + size - 1
            batched, strided = _batched_and_strided(kind, lo, hi, base, monkeypatch)
            assert batched == strided, f"{size} values"
            values = _dense(sieves._segment_values(kind, lo, hi, base))
            ends = [oracle_value(kind, n) for n in (lo, hi)]
            assert [values[0], values[-1]] == pytest.approx(ends, abs=1e-12), f"{size} values"


@settings(max_examples=200, deadline=None, database=None)
@given(
    size=st.integers(1, 300),
    steps=st.lists(st.integers(1, 400), min_size=0, max_size=40, unique=True).map(sorted),
    seed=st.integers(0, 2**32 - 1),
    threshold=st.integers(1, 500),
    batch=st.integers(1, 64),
    dtype=st.sampled_from([np.uint8, np.int8, None]),
)
def test_sieve_steps_match_a_loop_per_step(size, steps, seed, threshold, batch, dtype):
    """Against buf[o::s] += u (or = 0) one step at a time, at any threshold and batch size: a
    step's hits may outnumber a batch, offsets may lie past the buffer, and steps may share hits."""
    rng = np.random.default_rng(seed)
    buf = rng.integers(0, 256, size).astype(np.uint8).view(dtype or np.uint8)
    steps = np.array(steps, dtype=np.int64)
    offsets = rng.integers(0, 2 * size, len(steps)).astype(np.int64)
    units = None if dtype is None else rng.integers(0, 256, len(steps)).astype(np.uint8).view(dtype)
    want = buf.copy()
    for k, (o, s) in enumerate(zip(offsets.tolist(), steps.tolist())):
        view = want[o::s]
        if units is None:
            view[:] = 0
        else:
            view += units[k]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieves, "ADD_BATCH_STEP", threshold)
        mp.setattr(sieves, "ZERO_BATCH_STEP", threshold)
        mp.setattr(sieves, "STRIKE_HITS", batch)
        sieves._sieve_steps(buf, offsets, steps, units)
    assert buf.tobytes() == want.tobytes()
