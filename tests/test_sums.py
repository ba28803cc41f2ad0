import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievestats as ss
from sievestats import normality, sieves, sums
from sievestats.cli import run
from sievestats.sieves import (DEFAULT_SEGMENT_SIZE, PIECE_VALUES, iter_segments, oracle_value, range_sums,
                               segment_bounds)

INTEGER_KINDS = [ss.PRIME, ss.TWIN_PRIME, ss.SQUAREFREE, ss.MOEBIUS, ss.LIOUVILLE,
                 ss.PARITY_WEIGHT, ss.omega_equals(2)]
#: Segment sizes below, at and above PIECE_VALUES, and not multiples of it.
PIECE_SIZES = [1000, PIECE_VALUES - 1, PIECE_VALUES, PIECE_VALUES + 1, 2 * PIECE_VALUES, 3 * PIECE_VALUES + 7]


def oracle_prefix(kind, n):
    total = 0
    out = []
    for i in range(1, n + 1):
        total += oracle_value(kind, i)
        out.append(total)
    return out


def test_mertens_checkpoints():
    series = ss.accumulate(ss.MOEBIUS, 10, [1, 2, 10])
    assert series.sums == (1, 0, -1)


def test_squarefree_count_ten():
    assert ss.accumulate(ss.SQUAREFREE, 10, [10]).sums == (7,)


def test_parity_weight_sum_six():
    assert ss.accumulate(ss.PARITY_WEIGHT, 6, [6]).sums == (1,)


def test_prime_count_at_one():
    assert ss.accumulate(ss.PRIME, 1, [1]).sums == (0,)


@pytest.mark.parametrize(
    "n,expected", [(1, 1), (100, 1), (10**4, -23)]
)
def test_mertens_spot_values_match_oracle(n, expected):
    assert ss.accumulate(ss.MOEBIUS, n, [n]).sums[0] == expected
    if n <= 100:
        assert oracle_prefix(ss.MOEBIUS, n)[-1] == expected


def test_checkpoint_consistency_with_table():
    cps = [10, 100, 500, 1000]
    series = ss.accumulate(ss.MOEBIUS, 1000, cps)
    table = ss.sieve_table(ss.MOEBIUS, 1, 1000)
    prefix = np.cumsum(table.values, dtype=np.int64)
    for c, s in zip(cps, series.sums):
        assert s == int(prefix[c - 1])
    # Consecutive differences equal the sums over the open-closed gaps.
    for (a, sa), (b, sb) in zip(zip(cps, series.sums), zip(cps[1:], series.sums[1:])):
        assert sb - sa == int(table.values[a:b].sum())


def test_indicator_sums_are_monotone_within_range():
    cps = list(range(1, 201))
    series = ss.accumulate(ss.SQUAREFREE, 200, cps)
    sums = series.sums
    assert all(0 <= s <= n for n, s in zip(cps, sums))
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_checkpoint_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ss.accumulate(ss.MOEBIUS, 10, [2, 2])
    with pytest.raises(ValueError, match="strictly increasing"):
        ss.accumulate(ss.MOEBIUS, 10, [5, 3])
    with pytest.raises(ValueError, match="exceeds n_max"):
        ss.accumulate(ss.MOEBIUS, 10, [11])
    with pytest.raises(ValueError, match=">= 1"):
        ss.accumulate(ss.MOEBIUS, 10, [0, 5])
    with pytest.raises(ValueError, match="at least one checkpoint"):
        ss.accumulate(ss.MOEBIUS, 10, [])


def segments_of(monkeypatch, size):
    """Makes the streams `sums.accumulate` opens cut `size`-value segments."""
    monkeypatch.setattr(sums, "iter_segments", functools.partial(sieves.iter_segments, segment_size=size))


def test_von_mangoldt_sum_is_compensated_and_close(monkeypatch):
    # Chebyshev psi(n) against a direct oracle sum at modest n.
    n = 5000
    segments_of(monkeypatch, 997)
    series = ss.accumulate(ss.VON_MANGOLDT, n, [n])
    direct = math.fsum(oracle_value(ss.VON_MANGOLDT, i) for i in range(1, n + 1))
    assert series.sums[0] == pytest.approx(direct, abs=1e-9)


def test_von_mangoldt_checkpoint_sums_pinned(monkeypatch):
    # Each equals `math.fsum` of the weights up to its checkpoint, over 997-value segments:
    # the split into exact heads on the 2^-22 grid and small rests rounds each sum once.
    segments_of(monkeypatch, 997)
    series = ss.accumulate(ss.VON_MANGOLDT, 10**6, [1000, 65536, 10**6])
    assert series.sums == (996.6809122471752, 65466.400464967504, 999586.597495633)


def test_prefix_sums_dense(monkeypatch):
    segments_of(monkeypatch, 611)
    series = ss.accumulate(ss.MOEBIUS, 2000, range(1, 2001))
    assert list(series.sums) == oracle_prefix(ss.MOEBIUS, 2000)


def test_squarefree_sqrt_deviation_bounded_to_1e7():
    dense = np.cumsum(ss.sieve_table(ss.SQUAREFREE, 1, 10**7).values, dtype=np.int64)
    ns = np.arange(100, 10**7 + 1, dtype=np.float64)
    ratios = np.abs(dense[99:] - (6 / math.pi**2) * ns) / np.sqrt(ns)
    constant = float(ratios.max())
    print(f"observed sup |Q(n) - 6n/pi^2|/sqrt(n) on [1e2, 1e7]: {constant:.4f}")
    assert constant <= 2.0


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_von_mangoldt_sums_and_block_sums_equal_fsum(data):
    """Every S(c) and every block sum T_j from von Mangoldt's sparse segments equals `math.fsum`
    of the same weights, on small segments or on default ones across 2^20 and 2^21."""
    default = data.draw(st.booleans(), label="default segments")
    if default:
        size, n = DEFAULT_SEGMENT_SIZE, data.draw(st.integers(2**21 - 3, 2**21 + 3), label="n")
        edges = [2**20 - 1, 2**20, 2**20 + 1, 2**21 - 1, 2**21]
    else:
        size, n = data.draw(st.integers(1, 3000), label="size"), data.draw(st.integers(3000, 30000), label="n")
        edges = [c for k in range(size, n, size) for c in (k - 1, k, k + 1)][:30]
    extra = data.draw(st.lists(st.integers(1, n), max_size=8), label="checkpoints")
    cps = sorted({c for c in [*edges, *extra, n] if 1 <= c <= n})
    segments = list(iter_segments(ss.VON_MANGOLDT, 1, n, segment_size=size))
    at = np.concatenate([segment.offsets + lo for lo, _, segment in segments])
    weights = np.concatenate([segment.weights for _, _, segment in segments]).tolist()
    for c, got in zip(cps, sums.checkpoint_sums(ss.VON_MANGOLDT, cps, iter(segments))):
        assert got == math.fsum(weights[: int(at.searchsorted(c, "right"))]), c
    block = data.draw(st.integers(1000 if default else 100, n // 30), label="block size")
    blocks = normality.block_sums(ss.VON_MANGOLDT, n, block, iter(segments))
    ends = at.searchsorted(np.arange(len(blocks) + 1) * block, "right")
    for j, got in enumerate(blocks.tolist()):
        assert got == math.fsum(weights[ends[j] : ends[j + 1]]), j


def test_sieve_route_sum_stops_at_the_last_checkpoint(monkeypatch):
    """The stream is read only up to the last checkpoint: one of the ten segments of [1, 10^7]."""
    drawn = []
    real = sums.iter_segments

    def spy(*args, **kwargs):
        for segment in real(*args, **kwargs):
            drawn.append(segment[:2])
            yield segment

    monkeypatch.setattr(sums, "iter_segments", spy)
    assert ss.accumulate(ss.TWIN_PRIME, 10**7, [1000]).sums == (35,)
    assert drawn == [(1, DEFAULT_SEGMENT_SIZE)]


@pytest.mark.parametrize("kind", [ss.MOEBIUS, ss.VON_MANGOLDT], ids=str)
def test_range_sums_refuse_a_stream_that_ends_early(kind):
    with pytest.raises(ValueError, match="the segments end before 5001"):
        range_sums(kind, [10, 5001], iter_segments(kind, 1, 5000, segment_size=997))


def piece_edges(n, size):
    """The first and last value of every piece of every `size`-value segment of [1, n], and the
    values beside them: a piece edge at a multiple of 2^16 holds 0 for most kinds."""
    edges = {c for lo, hi in segment_bounds(1, n, size) for at in range(lo, hi + 1, PIECE_VALUES)
             for c in (lo, hi, at, min(at + PIECE_VALUES - 1, hi))}
    return sorted({c + d for c in edges for d in (-1, 0, 1) if 1 <= c + d <= n})


@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_integer_checkpoint_sums_match_a_dense_cumsum(data):
    """S(c) summed piece by piece equals the dense int64 cumsum for every integer kind, with
    checkpoints on and beside the first and last value of every piece and segment, and n_max at a
    segment end or anywhere."""
    size = data.draw(st.sampled_from(PIECE_SIZES) | st.integers(100, 3 * PIECE_VALUES), label="size")
    at_end = st.integers(1, max(1, 2**19 // size)).map(lambda k: k * size)
    n = data.draw(at_end | st.integers(1, 2**19), label="n")
    extra = data.draw(st.lists(st.integers(1, n), max_size=10), label="checkpoints")
    cps = sorted({*piece_edges(n, size), *extra})
    for kind in INTEGER_KINDS:
        segments = list(iter_segments(kind, 1, n, segment_size=size))
        dense = np.cumsum(np.concatenate([vals for _, _, vals in segments]), dtype=np.int64)
        got = sums.checkpoint_sums(kind, cps, iter(segments))
        assert got == dense[np.array(cps) - 1].tolist(), kind
        assert all(type(s) is int for s in got)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["twin_prime_indicator", "omega_equals:2"])
def test_sieve_route_sum_peak_memory(kind, workers, tmp_path):
    """A sieve-route `sum` holds the segments in flight and no segment-sized prefix: a checkpoint
    in each of 8 segments of 2^20 values costs one 2^16-value piece's int64 prefix.  Whole-segment
    int64 prefixes and the kernels' int8 copies of their own buffers peaked at 17.1-17.5 MiB at one
    worker and 22.2-22.7 MiB at two; now 3.6-4.6 MiB at either, as `--workers` is accepted and
    ignored."""
    n = 2**23
    cps = ",".join(str(k * 2**20 - 5) for k in range(1, 9))
    argv = ["sum", "--kind", kind, "--n-max", str(n), "--checkpoints", cps, "--workers", str(workers),
            "--output", str(tmp_path / "out.csv")]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * n, f"{peak / 2**20:.2f} MiB"
