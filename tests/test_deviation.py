import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievestats as ss
from sievestats.deviation import (
    PsiSpec,
    growth_from_block_sums,
    parse_psi,
    psi,
)


def test_psi_constant():
    assert psi("const:2", 5) == 2.0
    assert psi(PsiSpec("const", 2.0), 10**9) == 2.0


def test_psi_log():
    assert psi("log", 20) == pytest.approx(math.log(20))
    assert abs(psi("log", 20) - 3.0) < 0.01  # n = round(e^3)
    assert psi("log", 1) == math.log(3)  # clamped


def test_psi_loglog():
    assert psi("loglog", 10**6) == pytest.approx(math.log(math.log(10**6)))
    assert psi("loglog", 10**6) == pytest.approx(2.6258, abs=1e-4)
    assert psi("loglog", 2) == math.log(math.log(16))  # clamped


def test_psi_validation():
    with pytest.raises(ValueError, match="unknown psi form"):
        parse_psi("sqrt")
    with pytest.raises(ValueError, match="positive constant"):
        PsiSpec("const", -1.0)
    with pytest.raises(ValueError):
        psi("log", 0)


def test_counting_check_squarefree_passes():
    cps = [int(v) for v in np.unique(np.geomspace(10, 10**6, 60).astype(int))]
    series = ss.accumulate(ss.SQUAREFREE, 10**6, cps)
    report = ss.counting_deviation_check(series, 6 / math.pi**2, "const:2")
    assert report.passed
    assert report.worst_ratio < 1.0


def test_counting_check_constant_indicator_is_zero():
    cps = (10, 100, 1000)
    series = ss.SummationSeries(ss.SQUAREFREE, cps, cps)  # f identically 1
    report = ss.counting_deviation_check(series, 1.0, "const:2")
    assert report.worst_ratio == 0.0
    assert report.argmax_n == 10  # the first checkpoint wins ties
    assert report.passed


def test_counting_check_prime_with_wrong_trend_fails():
    series = ss.accumulate(ss.PRIME, 10**6, [10**4, 10**5, 10**6])
    report = ss.counting_deviation_check(series, 0.0, "const:2")
    assert not report.passed
    # pi(10^6) = 78498 against 0.5 * 1000 * 2.
    assert report.worst_ratio == pytest.approx(78498 / 1000, rel=1e-12)
    assert report.argmax_n == 10**6


def test_counting_check_monotone_in_psi():
    cps = [int(v) for v in np.unique(np.geomspace(100, 10**5, 25).astype(int))]
    series = ss.accumulate(ss.SQUAREFREE, 10**5, cps)
    small = ss.counting_deviation_check(series, 6 / math.pi**2, "const:1")
    large = ss.counting_deviation_check(series, 6 / math.pi**2, "const:4")
    assert large.worst_ratio <= small.worst_ratio
    assert (not small.passed) or large.passed


def test_counting_check_validation():
    series = ss.accumulate(ss.SQUAREFREE, 100, [100])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ss.counting_deviation_check(series, 1.5, "const:2")
    mu_series = ss.accumulate(ss.MOEBIUS, 100, [100])
    with pytest.raises(ValueError, match="indicator"):
        ss.counting_deviation_check(mu_series, 0.5, "const:2")


def test_exponent_check_linear_growth_ratio_two():
    cps = tuple(range(2, 50))
    series = ss.SummationSeries(ss.SQUAREFREE, cps, cps)  # S(n) = n
    report = ss.exponent_check(series, 0.0, 0.0)
    assert report.worst_ratio == pytest.approx(2.0)
    assert not report.passed
    # Monotone in xi: passing at xi implies passing at larger xi.
    relaxed = ss.exponent_check(series, 0.0, 1.5)
    assert relaxed.worst_ratio == pytest.approx(0.5)
    assert relaxed.passed


def test_exponent_check_skips_small_deviations():
    series = ss.SummationSeries(ss.MOEBIUS, (2, 3, 10), (0, 1, -5))
    report = ss.exponent_check(series, 0.0, 0.0)
    assert report.skipped == 1  # |S|=0 at n=2; |S|=1 at n=3 stays (log 1 = 0)
    assert report.argmax_n == 10
    assert report.worst_ratio == pytest.approx(math.log(5) / (0.5 * math.log(10)))


def test_exponent_check_all_skipped_raises():
    series = ss.SummationSeries(ss.MOEBIUS, (2, 3), (0, 0))
    with pytest.raises(ValueError, match="skipped"):
        ss.exponent_check(series, 0.0, 0.0)


def test_exponent_check_monotone_in_xi():
    cps = [int(v) for v in np.unique(np.geomspace(10, 10**5, 25).astype(int))]
    series = ss.accumulate(ss.MOEBIUS, 10**5, cps)
    r0 = ss.exponent_check(series, 0.0, 0.0)
    r1 = ss.exponent_check(series, 0.0, 0.1)
    assert r1.worst_ratio <= r0.worst_ratio
    assert (not r0.passed) or r1.passed


def test_parity_weight_exponent_check_passes():
    cps = [int(v) for v in np.unique(np.geomspace(2, 10**6, 80).astype(int))]
    series = ss.accumulate(ss.PARITY_WEIGHT, 10**6, cps)
    report = ss.exponent_check(series, 3 / math.pi**2, 0.1)
    assert report.passed


def riemann_check(n_max, xi, segment_size):
    """`mertens_riemann_check` over a moebius stream of `segment_size`-value segments."""
    with pytest.MonkeyPatch.context() as mp:
        stream = functools.partial(ss.sieves.iter_segments, segment_size=segment_size)
        mp.setattr(ss.deviation, "iter_segments", stream)
        return ss.mertens_riemann_check(n_max, xi)


def test_riemann_check_small_range():
    report = ss.mertens_riemann_check(10**5, 0.0)
    assert report.passed
    assert report.worst_ratio == pytest.approx(math.log(2) / (0.5 * math.log(5)))
    assert report.argmax_n == 5
    assert report.n_lo == 2 and report.n_hi == 10**5


def test_riemann_check_dense_vs_checkpoint_scan():
    # The dense scan must agree with an explicit prefix-array maximum.
    n = 30000
    mu = ss.sieve_table(ss.MOEBIUS, 1, n).values
    m = np.cumsum(mu.astype(np.int64))
    ns = np.arange(1, n + 1, dtype=np.float64)
    mask = (np.abs(m) >= 1) & (ns >= 2)
    ratios = np.log(np.abs(m[mask])) / (0.5 * np.log(ns[mask]))
    report = riemann_check(n, 0.0, 777)
    assert report.worst_ratio == pytest.approx(float(ratios.max()), abs=1e-12)
    assert report.skipped == int(len(m) - mask.sum())


def _dense_riemann_reference(n_max, xi):
    """(worst_ratio, argmax_n, skipped) from one unsegmented, unpruned pass."""
    return _dense_walk_reference(ss.sieve_table(ss.MOEBIUS, 1, n_max).values, xi)


def _dense_walk_reference(vals, xi):
    """The same over the walk M(n) = vals[0] + ... + vals[n - 1]."""
    m = np.cumsum(vals, dtype=np.int64)
    ns = np.arange(1, len(vals) + 1, dtype=np.float64)
    mask = (np.abs(m) >= 1) & (ns >= 2)
    ratios = np.log(np.abs(m[mask]).astype(np.float64)) / ((0.5 + xi) * np.log(ns[mask]))
    i = int(np.argmax(ratios))
    return float(ratios[i]), int(ns[mask][i]), int(len(m) - np.count_nonzero(mask))


@pytest.mark.parametrize(
    "n_max, xi, segment_size",
    [
        (30000, 0.0, 777),
        (30000, 0.1, 1),
        (100000, 0.02, 4096),
        # The worst ratio moves past n = 5 only from n = 299158 on, in segment 5.
        (400000, 0.0, 65536),
        # ... and at n = 300551, near the start of a long second segment.
        (400000, 0.0, 299000),
        (400000, 0.05, 12345),
        (400000, 0.3, 1 << 20),
    ],
)
def test_pruned_riemann_check_matches_dense_reference(n_max, xi, segment_size):
    report = riemann_check(n_max, xi, segment_size)
    worst, argmax, skipped = _dense_riemann_reference(n_max, xi)
    assert report.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert (report.argmax_n, report.skipped) == (argmax, skipped)
    assert report.passed == (worst <= 1.0)
    assert type(report.skipped) is int


def test_late_worst_ratio_survives_pruning():
    report = riemann_check(400000, 0.0, 65536)
    assert report.argmax_n == 300551  # the fifth segment; the first sets n = 5
    assert report.argmax_n // 65536 == 4


@pytest.mark.parametrize("n_max, segment_size", [(50000, 999), (400000, 65536)])
def test_pruning_changes_no_report_field(monkeypatch, n_max, segment_size):
    pruned = riemann_check(n_max, 0.0, segment_size)
    # An infinite slack makes every bound lose, so every segment is scanned.
    monkeypatch.setattr(ss.deviation, "PRUNE_SLACK", math.inf)
    assert riemann_check(n_max, 0.0, segment_size) == pruned


@settings(max_examples=30, deadline=None, database=None)
@given(
    case=st.integers(1, 70_000).flatmap(
        # At most 500 segments, so that tiny segment sizes stay quick.
        lambda size: st.tuples(st.integers(3, min(200_000, 500 * size)), st.just(size))
    ),
    xi=st.floats(0.0, 0.3),
)
def test_chunked_riemann_check_matches_dense_reference(case, xi):
    n_max, segment_size = case
    report = riemann_check(n_max, xi, segment_size)
    worst, argmax, skipped = _dense_riemann_reference(n_max, xi)
    assert report.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert (report.argmax_n, report.skipped) == (argmax, skipped)


@pytest.mark.parametrize(
    "n_max, segment_size",
    [
        (65, 1 << 20),  # M(65) = 0 is the first value of a chunk padded with zeros
        (896, 1 << 20),  # M(896) = 0 is the last value of a full chunk
        (897, 1 << 20),  # one past a chunk edge
        (1537, 64),  # M(1280) = 0 ends a pruned chunk, M(1537) = 0 starts one
        (2113, 64),  # ... and n_max one past a segment edge
        (4609, 128),  # M(4608) = 0 ends a pruned chunk, one before n_max
    ],
)
def test_riemann_check_zeros_on_chunk_edges(monkeypatch, n_max, segment_size):
    pruned = riemann_check(n_max, 0.0, segment_size)
    worst, argmax, skipped = _dense_riemann_reference(n_max, 0.0)
    assert pruned.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert (pruned.argmax_n, pruned.skipped) == (argmax, skipped)
    monkeypatch.setattr(ss.deviation, "PRUNE_SLACK", math.inf)
    assert riemann_check(n_max, 0.0, segment_size) == pruned


@settings(max_examples=60, deadline=None, database=None)
@given(
    runs=st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 200)), min_size=1, max_size=20),
    segment_size=st.integers(1, 700),
)
def test_riemann_check_on_walks_that_meet_the_chunk_bound(runs, segment_size):
    """Long runs of one step meet the chunk enclosure of M with equality, as mu never does.

    The walk starts at M(1) = 1, as mu does, because n = 1 is counted as skipped up front.
    """
    vals = np.repeat(np.array([1, *(v for v, _ in runs)], np.int8), [1, *(k for _, k in runs)])

    def walk(kind, lo, hi, *, segment_size):
        for a in range(lo, hi + 1, segment_size):
            yield a, min(a + segment_size - 1, hi), vals[a - 1 : a - 1 + segment_size]

    expected = None
    if np.any(np.cumsum(vals, dtype=np.int64)[1:]):
        expected = _dense_walk_reference(vals, 0.0)
    for slack in (ss.deviation.PRUNE_SLACK, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ss.deviation, "iter_segments", functools.partial(walk, segment_size=segment_size))
            mp.setattr(ss.deviation, "PRUNE_SLACK", slack)
            if expected is None:
                with pytest.raises(ValueError, match="skipped"):
                    ss.mertens_riemann_check(len(vals), 0.0)
                continue
            report = ss.mertens_riemann_check(len(vals), 0.0)
        assert report.worst_ratio == pytest.approx(expected[0], rel=1e-12)
        assert (report.argmax_n, report.skipped) == expected[1:]


def test_riemann_check_peak_memory():
    """The scan holds about two segments of int8 values and their chunk totals.

    Its first segment is pruned too, by the largest ratio at its chunk ends:
    5.5 MiB traced at 2*10^6, 5.3 bytes per value of a 2^20-value segment.
    With every value of the first segment scanned as int64 and float64, the
    peak was 43 MiB.
    """
    tracemalloc.start()
    try:
        ss.mertens_riemann_check(2 * 10**6, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * ss.sieves.DEFAULT_SEGMENT_SIZE, f"{peak / 2**20:.2f} MiB"


def test_riemann_check_guard_cases():
    with pytest.raises(ValueError, match="skipped"):
        ss.mertens_riemann_check(2, 0.0)
    with pytest.raises(ValueError, match=">= 2"):
        ss.mertens_riemann_check(1, 0.0)
    with pytest.raises(ValueError, match="xi"):
        ss.mertens_riemann_check(100, -0.5)


def test_riemann_check_monotone_in_xi():
    strict = ss.mertens_riemann_check(10**4, 0.0)
    relaxed = ss.mertens_riemann_check(10**4, 0.01)
    assert relaxed.worst_ratio <= strict.worst_ratio


def test_variance_growth_iid_flat_slope():
    rng = np.random.default_rng(np.random.SeedSequence(31415))
    values = (rng.random(10**5) < 0.3).astype(np.int8)
    sums = values.reshape(100, 1000).sum(axis=1)
    growth = growth_from_block_sums(sums, 1000)
    assert abs(growth.slope) <= 0.15
    assert growth.h_hat[-1] == pytest.approx(0.3 * 0.7, abs=0.05)


def test_variance_growth_constant_is_zero():
    growth = growth_from_block_sums(np.zeros(50), 1000)
    assert all(h == 0.0 for h in growth.h_hat)
    assert growth.slope == 0.0


def test_variance_growth_moebius_level_and_slope():
    growth = ss.variance_growth(ss.MOEBIUS, 10**6, 1000)
    assert abs(growth.slope) <= 0.15
    assert growth.h_hat[-1] == pytest.approx(6 / math.pi**2, abs=0.05)


def test_variance_growth_validation():
    with pytest.raises(ValueError, match=">= 100"):
        ss.variance_growth(ss.MOEBIUS, 10**5, 50)
    with pytest.raises(ValueError, match="too few blocks"):
        ss.variance_growth(ss.MOEBIUS, 10**4, 1000)
