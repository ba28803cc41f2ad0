import math

import numpy as np
import pytest

import sievestats as ss
from sievestats.empirical import empirical_cdf, moments, value_counts
from sievestats.sieves import ValueTable, iter_segments


def test_prime_moments_ten():
    table = ss.sieve_table(ss.PRIME, 1, 10)
    m = moments(table, 10)
    assert m.mean == pytest.approx(0.4)
    assert m.variance == pytest.approx(0.24)
    assert m.histogram == {0: 6, 1: 4}


def test_squarefree_mean_ten():
    table = ss.sieve_table(ss.SQUAREFREE, 1, 10)
    assert moments(table, 10).mean == pytest.approx(0.7)


def test_constant_values_have_zero_variance():
    table = ValueTable(ss.SQUAREFREE, 1, 50, np.ones(50, dtype=np.int8))
    m = moments(table, 50)
    assert m.variance == 0.0
    assert m.mean == 1.0


def test_value_counts_match_np_unique(mu_table, pw_table):
    missing_values = ValueTable(ss.MOEBIUS, 1, 50, np.ones(50, dtype=np.int8))
    for table in (mu_table, pw_table, missing_values):
        n = table.hi
        uniq, counts = np.unique(table.values, return_counts=True)
        cdf = empirical_cdf(table, n)
        assert cdf.support == tuple(int(u) for u in uniq)
        assert cdf.counts == tuple(int(c) for c in counts)
        assert moments(table, n).histogram == dict(zip(cdf.support, cdf.counts))


@pytest.mark.parametrize("kind", [ss.PRIME, ss.TWIN_PRIME, ss.SQUAREFREE, ss.MOEBIUS, ss.LIOUVILLE,
                                  ss.PARITY_WEIGHT, ss.omega_equals(2), ss.VON_MANGOLDT], ids=str)
def test_value_counts_over_segments_match_np_unique(kind):
    """Counts merged over 977-value segments equal one `np.unique` of the whole table."""
    n = 10**5
    uniq, counts = np.unique(ss.sieve_table(kind, 1, n).values, return_counts=True)
    got_uniq, got_counts = value_counts(kind, iter_segments(kind, 1, n, segment_size=977))
    assert got_uniq.tolist() == uniq.tolist()  # von Mangoldt's floats bit for bit
    assert got_counts.tolist() == counts.tolist()


def test_values_outside_the_alphabet_are_refused():
    stray = ValueTable(ss.SQUAREFREE, 1, 6, np.array([1, 1, 0, 2, 1, 0], dtype=np.int8))
    for statistic in (moments, empirical_cdf):
        with pytest.raises(ValueError, match="outside the alphabet"):
            statistic(stray, 6)


def test_indicator_variance_identity(sf_table):
    m = moments(sf_table, 10**6)
    assert m.variance == m.mean * (1.0 - m.mean)


def test_moments_match_accumulate_exactly(mu_table):
    n = 99991
    m = moments(mu_table, n)
    s = ss.accumulate(ss.MOEBIUS, n, [n]).sums[0]
    assert m.mean == s / n  # same exact-integer division


def test_moments_basic_invariants(pw_table):
    m = moments(pw_table, 10**5)
    assert m.variance >= 0
    assert m.min_value <= m.mean <= m.max_value
    assert sum(m.histogram.values()) == 10**5


def test_moments_requires_coverage():
    table = ss.sieve_table(ss.MOEBIUS, 2, 10)
    with pytest.raises(ValueError, match="does not cover"):
        moments(table, 5)
    with pytest.raises(ValueError, match="does not cover"):
        moments(ss.sieve_table(ss.MOEBIUS, 1, 10), 11)


def test_von_mangoldt_histogram_dropped_when_large():
    table = ss.sieve_table(ss.VON_MANGOLDT, 1, 2000)
    assert moments(table, 2000).histogram is None
    assert moments(table, 20).histogram is not None


def test_density_examples():
    assert ss.density(ss.SQUAREFREE, 10) == pytest.approx(0.7)
    assert ss.density(ss.PRIME, 1) == 0.0
    assert ss.density(ss.SQUAREFREE, 10**6) == pytest.approx(6 / math.pi**2, abs=1e-3)


def test_density_rejects_non_indicator():
    with pytest.raises(ValueError, match="indicator"):
        ss.density(ss.MOEBIUS, 10)


def test_prime_cdf_ten():
    table = ss.sieve_table(ss.PRIME, 1, 10)
    cdf = empirical_cdf(table, 10)
    assert cdf.support == (0, 1)
    assert cdf.below(1) == pytest.approx(0.6)
    assert cdf.cdf_below[-1] == 1.0
    assert cdf.below(-5) == 0.0


def test_moebius_cdf_strict_inequality():
    table = ss.sieve_table(ss.MOEBIUS, 1, 10)
    cdf = empirical_cdf(table, 10)
    # mu on [1,10] has four -1 values, three 0 values, three +1 values.
    assert cdf.below(0) == pytest.approx(0.4)
    assert cdf.below(-1) == 0.0
    assert cdf.below(1) == pytest.approx(0.7)
    assert cdf.below(2) == 1.0
    assert cdf.counts == (4, 3, 3)


def test_cdf_is_nondecreasing(pw_table):
    cdf = empirical_cdf(pw_table, 10**4)
    assert list(cdf.cdf_below) == sorted(cdf.cdf_below)
    assert cdf.cdf_below[0] == 0.0
    assert cdf.cdf_below[-1] == 1.0


def test_von_mangoldt_cdf_guard():
    table = ss.sieve_table(ss.VON_MANGOLDT, 1, 100)
    cdf = empirical_cdf(table, 100)
    assert cdf.below(1e-12) == pytest.approx(
        sum(1 for v in table.values if v == 0.0) / 100
    )
    fake = ValueTable(ss.VON_MANGOLDT, 1, 10**7 + 1, np.zeros(10**7 + 1, dtype=np.float64))
    with pytest.raises(ValueError, match="unsupported"):
        empirical_cdf(fake, 10**7 + 1)
