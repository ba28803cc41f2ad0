import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievestats as ss
from sievestats.normality import block_sums, normal_cdf, squarefree_parity_weight_moments
from sievestats.sieves import PIECE_VALUES, ValueTable, iter_segments

INTEGER_KINDS = [ss.PRIME, ss.TWIN_PRIME, ss.SQUAREFREE, ss.MOEBIUS, ss.LIOUVILLE,
                 ss.PARITY_WEIGHT, ss.omega_equals(2)]


def test_binomial_variance_example():
    assert ss.binomial_variance(7, 10) == pytest.approx(2.1)


def test_binomial_variance_degenerate_ends():
    assert ss.binomial_variance(0, 50) == 0.0
    assert ss.binomial_variance(50, 50) == 0.0


def test_binomial_variance_symmetry():
    for n in (10, 137, 1000):
        for q in range(n + 1):
            assert ss.binomial_variance(q, n) == pytest.approx(
                ss.binomial_variance(n - q, n)
            )


def test_binomial_variance_validation():
    with pytest.raises(ValueError):
        ss.binomial_variance(11, 10)
    with pytest.raises(ValueError):
        ss.binomial_variance(-1, 10)
    with pytest.raises(ValueError):
        ss.binomial_variance(0, 0)


def test_normal_cdf_against_stdlib():
    nd = NormalDist()
    for z in (-3.5, -1.0, 0.0, 0.7, 2.9):
        assert normal_cdf(z) == pytest.approx(nd.cdf(z), abs=1e-12)


def test_ks_plugin_quantiles():
    nd = NormalDist()
    samples = [nd.inv_cdf(j / 100) for j in range(1, 100)]
    assert ss.ks_normal(samples) <= 0.011


def test_ks_point_mass():
    assert ss.ks_normal([0.0] * 40) >= 0.5


def test_ks_seeded_normal_draws():
    z = np.random.default_rng(np.random.SeedSequence(101)).standard_normal(1000)
    assert ss.ks_normal(z) <= 0.05


def test_ks_is_permutation_invariant():
    rng = np.random.default_rng(np.random.SeedSequence(3))
    z = rng.standard_normal(200)
    shuffled = z.copy()
    rng.shuffle(shuffled)
    assert ss.ks_normal(z) == ss.ks_normal(shuffled)


def test_ks_validation():
    with pytest.raises(ValueError, match="at least 30"):
        ss.ks_normal([0.0] * 29)
    with pytest.raises(ValueError, match="finite"):
        ss.ks_normal([math.nan] + [0.0] * 29)


def test_block_standardize_moments_invariant(mu_table):
    blocks = ss.block_standardize(mu_table, 10**6, 1000)
    z = np.array(blocks.standardized)
    assert blocks.block_count == 1000
    assert abs(z.mean()) < 1e-12
    assert abs(z.std(ddof=1) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", INTEGER_KINDS, ids=str)
@pytest.mark.parametrize("segment_size, n", [(977, 10**5), (2**20, 2**20 + 10**5)])
def test_block_sums_carry_straddling_blocks_exactly(kind, segment_size, n):
    """Block sums over sieve segments equal the reshape of the whole array.

    1000-value blocks straddle 977-value segments, and both block sizes
    straddle the 2^20 boundary.  977-value blocks line up with 977-value
    segments, and the last of those segments lies wholly past the last block.
    """
    segments = list(iter_segments(kind, 1, n, segment_size=segment_size))
    values = np.concatenate([vals for _, _, vals in segments])
    for block_size in (977, 1000):
        count = n // block_size
        expected = values[: count * block_size].reshape(count, block_size).sum(axis=1)
        got = block_sums(kind, n, block_size, iter(segments))
        assert got.dtype == np.float64
        assert np.array_equal(got, expected), block_size


@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_integer_block_sums_match_a_dense_reduceat(data):
    """Block sums reduced piece by piece equal `np.add.reduceat` of the whole array for the
    integer kinds, for segments below, at and above PIECE_VALUES values and not multiples of it,
    with blocks that start on the first or last value of a piece or a segment, and n at a segment
    end or anywhere."""
    sizes = [1000, PIECE_VALUES - 1, PIECE_VALUES, PIECE_VALUES + 1, 2 * PIECE_VALUES, 3 * PIECE_VALUES + 7]
    size = data.draw(st.sampled_from(sizes) | st.integers(100, 3 * PIECE_VALUES), label="size")
    at_end = st.integers(1, (2**21 + 3) // size).map(lambda k: k * size).filter(lambda n: n >= 3000)
    n = data.draw(at_end | st.integers(3000, 2**21 + 3), label="n")
    edges = [100, 128, 1024, PIECE_VALUES - 1, PIECE_VALUES, PIECE_VALUES + 1, size - 1, size, size + 1]
    fitting = [b for b in edges if 100 <= b <= n // 30]
    block_size = data.draw(st.sampled_from(fitting) | st.integers(100, n // 30), label="block size")
    kind = data.draw(st.sampled_from(INTEGER_KINDS), label="kind")
    segments = list(iter_segments(kind, 1, n, segment_size=size))
    values = np.concatenate([vals for _, _, vals in segments])[: n // block_size * block_size]
    expected = np.add.reduceat(values, np.arange(0, len(values), block_size), dtype=np.int64)
    got = block_sums(kind, n, block_size, iter(segments))
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)


def test_block_standardize_degenerate_variance():
    table = ValueTable(ss.SQUAREFREE, 1, 30000, np.ones(30000, dtype=np.int8))
    with pytest.raises(ValueError, match="degenerate variance"):
        ss.block_standardize(table, 30000, 100)


def test_block_standardize_validation(mu_table):
    with pytest.raises(ValueError, match=">= 100"):
        ss.block_standardize(mu_table, 10**4, 50)
    with pytest.raises(ValueError, match="too few blocks"):
        ss.block_standardize(mu_table, 10**4, 1000)


def test_bernoulli_blocks_pass_ks():
    rng = np.random.default_rng(np.random.SeedSequence(55))
    values = (rng.random(10**5) < 0.5).astype(np.int8)
    blocks = ss.block_standardize(ValueTable(ss.PRIME, 1, 10**5, values), 10**5, 1000)
    report = ss.normality_report("bernoulli(0.5)", 10**5, blocks)
    assert report.ks_statistic <= 0.15


def test_mertens_blocks_feed_the_pipeline(mu_table):
    blocks = ss.block_standardize(mu_table, 10**6, 1000)
    report = ss.normality_report(str(mu_table.kind), 10**6, blocks)
    assert report.block_count == 1000
    assert report.label == "moebius"
    assert 0.0 <= report.ks_statistic <= 1.0
    assert len(report.standardized) == 1000


def test_parity_weight_moment_constants():
    mean, variance = squarefree_parity_weight_moments()
    assert mean == pytest.approx(0.30396355092701331, abs=1e-12)
    assert variance == pytest.approx(1.4274239143429077, abs=1e-10)
    # Mean identity from the limiting value probabilities.
    pi2 = math.pi**2
    assert 2 * (3 / pi2) + (-1) * (3 / pi2) == pytest.approx(mean)
    # Second-moment identity: 4 * 3/pi^2 + 1 * 3/pi^2 = 15/pi^2.
    assert variance == pytest.approx(15 / pi2 - (3 / pi2) ** 2)


def test_mertens_increment_variance_constant():
    assert ss.mertens_increment_variance() == pytest.approx(0.60792710185402663)


def test_mertens_increment_variance_small_n_exact():
    # On [1, 10]: seven nonzero mu values and M(10) = -1, so the empirical
    # variance is 7/10 - (1/10)^2 = 0.69.
    table = ss.sieve_table(ss.MOEBIUS, 1, 10)
    m = ss.moments(table, 10)
    assert m.variance == pytest.approx(0.69)


def test_mertens_increment_variance_empirical(mu_table):
    m = ss.moments(mu_table, 10**6)
    assert m.variance == pytest.approx(ss.mertens_increment_variance(), abs=0.01)


def test_squarefree_binomial_variance_density_limit(sf_table):
    # binomial_variance(Q(n), n)/n approaches (6/pi^2)(1 - 6/pi^2).
    target = (6 / math.pi**2) * (1 - 6 / math.pi**2)
    for n in (10**4, 10**6):
        q = int(sf_table.values[:n].sum(dtype=np.int64))
        assert ss.binomial_variance(q, n) / n == pytest.approx(target, abs=0.005)
