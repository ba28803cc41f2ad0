import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievestats as ss
from sievestats import normality, sums
from sievestats.sieves import DEFAULT_SEGMENT_SIZE, iter_segments, oracle_value


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
    assert ss.mertens(n) == expected
    if n <= 100:
        assert oracle_prefix(ss.MOEBIUS, n)[-1] == expected


def test_mertens_rejects_zero():
    with pytest.raises(ValueError):
        ss.mertens(0)


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


def test_parallel_accumulation_bit_identical():
    cps = [10**5, 5 * 10**5, 10**6]
    serial = ss.accumulate(ss.MOEBIUS, 10**6, cps, segment_size=1 << 16, workers=1)
    threaded = ss.accumulate(ss.MOEBIUS, 10**6, cps, segment_size=1 << 16, workers=4)
    assert serial.sums == threaded.sums


def test_von_mangoldt_sum_is_compensated_and_close():
    # Chebyshev psi(n) against a direct oracle sum at modest n.
    n = 5000
    series = ss.accumulate(ss.VON_MANGOLDT, n, [n], segment_size=997)
    direct = math.fsum(oracle_value(ss.VON_MANGOLDT, i) for i in range(1, n + 1))
    assert series.sums[0] == pytest.approx(direct, abs=1e-9)
    threaded = ss.accumulate(ss.VON_MANGOLDT, n, [n], segment_size=997, workers=3)
    assert series.sums[0] == threaded.sums[0]


def test_von_mangoldt_checkpoint_sums_pinned():
    # Exact float64 results of the Kahan carry over 997-value segments, with
    # checkpoint-free segments summed pairwise; any change to that order shows.
    series = ss.accumulate(ss.VON_MANGOLDT, 10**6, [1000, 65536, 10**6], segment_size=997)
    assert series.sums == (996.6809122471752, 65466.400464967504, 999586.597495633)


def test_prefix_sums_dense():
    series = ss.accumulate(ss.MOEBIUS, 2000, range(1, 2001), segment_size=611)
    assert list(series.sums) == oracle_prefix(ss.MOEBIUS, 2000)


def test_squarefree_sqrt_deviation_bounded_to_1e7():
    dense = np.cumsum(ss.sieve_table(ss.SQUAREFREE, 1, 10**7).values, dtype=np.int64)
    ns = np.arange(100, 10**7 + 1, dtype=np.float64)
    ratios = np.abs(dense[99:] - (6 / math.pi**2) * ns) / np.sqrt(ns)
    constant = float(ratios.max())
    print(f"observed sup |Q(n) - 6n/pi^2|/sqrt(n) on [1e2, 1e7]: {constant:.4f}")
    assert constant <= 2.0


def _within_sequential_bound(got, weights):
    """|got - fsum(weights)| <= m * 2^-53 * sum(weights): the rounding bound of m sequential
    float adds of m positive weights (an empty sum must be exactly 0)."""
    exact = math.fsum(weights)
    return abs(got - exact) <= len(weights) * 2.0**-53 * exact


@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_von_mangoldt_sums_and_block_sums_within_sequential_bound(data):
    """S(c) and the block sums T_j from von Mangoldt's sparse segments, against `math.fsum` of
    the same weights, on small segments or on default ones across 2^20 and 2^21."""
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
        assert _within_sequential_bound(got, weights[: int(at.searchsorted(c, "right"))]), c
    block = data.draw(st.integers(1000 if default else 100, n // 30), label="block size")
    blocks = normality.block_sums(ss.VON_MANGOLDT, n, block, iter(segments))
    ends = at.searchsorted(np.arange(len(blocks) + 1) * block, "right")
    for j, got in enumerate(blocks.tolist()):
        assert _within_sequential_bound(got, weights[ends[j] : ends[j + 1]]), j
