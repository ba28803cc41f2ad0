import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievestats as ss
from sievestats import cli, mixing, sieves, sums
from sievestats.mixing import (
    DEFAULT_REPORT_LAGS, REPORT_WINDOWS, _lag_counts, _range_counts, _value_bits, _window_lag,
)
from sievestats.kinds import parse_kind
from sievestats.sieves import ValueTable, iter_segments


def enumeration_gap(values, lag, b1, b2):
    """Direct-count oracle for the independence gap."""
    head = values[: len(values) - lag]
    tail = values[lag:]
    m = len(head)
    in1 = np.isin(head, sorted(b1))
    in2 = np.isin(tail, sorted(b2))
    joint = int(np.count_nonzero(in1 & in2))
    c1 = int(np.count_nonzero(in1))
    c2 = int(np.count_nonzero(in2))
    return abs(joint / m - (c1 / m) * (c2 / m))


def seeded_values(alphabet, n, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.choice(np.array(alphabet, dtype=np.int8), size=n)


@pytest.mark.parametrize("alphabet", [(0, 1), (-1, 0, 1), (-1, 0, 2)])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 200])
def test_lag_counts_match_bincount_at_every_lag(alphabet, n):
    """Every lag on [0, n) and on ranges [start, stop) whose ends sit inside words."""
    values = seeded_values(alphabet, n, seed=n)
    size = len(alphabet)
    codes = np.searchsorted(alphabet, values).astype(np.int64)
    bits, counts = _value_bits(n, [(1, n, values)], alphabet)
    assert counts.tolist() == np.bincount(codes, minlength=size).tolist()
    ends = sorted({0, 1, 3, 63, 64, 65, 100, 127, 129, n - 1, n} & set(range(n + 1)))
    for start, stop in [(a, b) for a in ends for b in ends if a < b]:
        window = codes[start:stop]
        for lag in range(stop - start):
            pairs = window[: len(window) - lag] * size + window[lag:]
            expected = np.bincount(pairs, minlength=size * size).reshape(size, size)
            got = _lag_counts(bits, lag, start, stop, np.bincount(window, minlength=size))
            assert got.tolist() == expected.tolist(), (start, stop, lag)
        assert _range_counts(bits, start, stop).tolist() == np.bincount(window, minlength=size)[:-1].tolist()


@pytest.mark.parametrize("alphabet", [(0, 1), (-1, 0, 1), (-1, 0, 2)])
@pytest.mark.parametrize("size", [1, 3, 8, 64, 977])
def test_packing_segments_matches_packing_one_segment(alphabet, size):
    """Segments starting inside bytes and words give the same bitsets as one segment."""
    n = 5000
    values = seeded_values(alphabet, n, seed=size)
    segments = [(lo, min(lo + size - 1, n), values[lo - 1 : lo - 1 + size]) for lo in range(1, n + 1, size)]
    bits, counts = _value_bits(n, segments, alphabet)
    whole_bits, whole_counts = _value_bits(n, [(1, n, values)], alphabet)
    assert counts.tolist() == whole_counts.tolist()
    for b, whole in zip(bits, whole_bits):
        assert b.tolist() == whole.tolist()


def bincount_joint(codes, size, lag, start, stop):
    """The k^2 reference: J_lag on positions [start, stop) from one bincount of pair codes."""
    window = codes[start:stop]
    pairs = window[: len(window) - lag] * size + window[lag:]
    return np.bincount(pairs, minlength=size * size).reshape(size, size).tolist()


@pytest.mark.parametrize("alphabet", [(0, 1), (-1, 0, 1), (-1, 0, 2)])
@pytest.mark.parametrize("rest", [0, 3], ids=["empty_tail", "tail"])
@settings(max_examples=25, deadline=None, database=None)
@given(quarter=st.integers(3, 800), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_joint_counts_from_k_minus_one_bitsets_match_bincount(alphabet, rest, quarter, seed, data):
    """J from k - 1 bitsets and range counts equals the k^2 reference on random
    segments, ranges and lags; on [0, n), composed from the report windows below
    window/2 and counted directly above, it equals a direct count."""
    n, size = 4 * quarter + rest, len(alphabet)
    values = seeded_values(alphabet, n, seed)
    codes = np.searchsorted(alphabet, values).astype(np.int64)
    step = data.draw(st.integers(1, n), label="segment")
    segments = [(lo, min(lo + step - 1, n), values[lo - 1 : lo - 1 + step]) for lo in range(1, n + 1, step)]
    pairs = mixing.PairCounts(n, segments, alphabet)
    assert len(pairs.bits) == size - 1

    start = data.draw(st.integers(0, n - 2), label="start")
    stop = data.draw(st.integers(start + 2, n), label="stop")
    lag = data.draw(st.integers(0, stop - start - 1), label="lag")
    assert pairs.range_counts(start, stop).tolist() == np.bincount(codes[start:stop], minlength=size).tolist()
    assert pairs.joint(lag, start, stop).tolist() == bincount_joint(codes, size, lag, start, stop)

    half = -(-(n // REPORT_WINDOWS) // 2)  # the least lag the windows do not count
    composed = data.draw(st.integers(1, half - 1), label="composed lag")
    direct = data.draw(st.integers(half, -(-n // 2) - 1), label="direct lag")
    assert _window_lag(composed, n) and not _window_lag(direct, n)
    for h in (composed, direct):
        expected = bincount_joint(codes, size, h, 0, n)
        assert pairs.joint(h).tolist() == expected
        assert _lag_counts(pairs.bits, h, 0, n, pairs.counts).tolist() == expected


def test_stray_value_in_a_later_segment_is_refused_when_read():
    values = seeded_values((-1, 0, 1), 5000, seed=3)
    values[2345] = 2
    read = []

    def segments():
        for lo in range(1, 5001, 1000):
            read.append(lo)
            yield lo, lo + 999, values[lo - 1 : lo + 999]

    with pytest.raises(ValueError, match="outside the alphabet"):
        mixing.PairCounts(5000, segments(), (-1, 0, 1))
    assert read == [1, 1001, 2001]


@pytest.mark.parametrize("position", [63, 64, 65])
def test_stray_value_at_a_word_boundary_is_refused(position):
    values = seeded_values((-1, 0, 1), 200, seed=position)
    values[position] = 2
    with pytest.raises(ValueError, match="outside the alphabet"):
        ss.alpha_hat(ValueTable(ss.MOEBIUS, 1, 200, values), 200, [1])
    with pytest.raises(ValueError, match="outside the alphabet"):
        ss.autocovariance(ValueTable(ss.MOEBIUS, 1, 200, values), 200, [64])


def test_autocovariance_across_word_shifts_matches_int64_reference():
    n, lags = 1000, [63, 64, 65, 128]
    values = seeded_values((-1, 0, 1), n, seed=11)
    x = values.astype(np.int64)
    mean = int(x.sum()) / n
    expected = []
    for h in lags:
        cross = int(np.dot(x[: n - h], x[h:]))
        heads_and_tails = int(x[: n - h].sum()) + int(x[h:].sum())
        expected.append((cross - mean * heads_and_tails) / (n - h) + mean * mean)
    cov = ss.autocovariance(ValueTable(ss.MOEBIUS, 1, n, values), n, lags)
    assert cov.r_hat == tuple(expected)
    assert cov.mean_used == mean


def test_autocovariance_constant_table_is_zero():
    table = ValueTable(ss.SQUAREFREE, 1, 200, np.ones(200, dtype=np.int8))
    cov = ss.autocovariance(table, 200, [0, 1, 5, 20])
    assert cov.r_hat == (0.0, 0.0, 0.0, 0.0)


def test_autocovariance_lag_zero_equals_variance(mu_table, sf_table):
    m_mu = ss.moments(mu_table, 10**5)
    r_mu = ss.autocovariance(mu_table, 10**5, [0]).r_hat[0]
    assert r_mu == m_mu.variance  # same exact-integer arithmetic
    m_sf = ss.moments(sf_table, 10**5)
    r_sf = ss.autocovariance(sf_table, 10**5, [0]).r_hat[0]
    assert r_sf == pytest.approx(m_sf.variance, rel=1e-12)


def test_autocovariance_matches_direct_loop():
    table = ss.sieve_table(ss.MOEBIUS, 1, 500)
    vals = table.values.astype(np.float64)
    mean = vals.mean()
    cov = ss.autocovariance(table, 500, [1, 7])
    for h, got in zip(cov.lags, cov.r_hat):
        direct = float(np.sum((vals[: 500 - h] - mean) * (vals[h:] - mean)) / (500 - h))
        assert got == pytest.approx(direct, abs=1e-12)


def test_prime_lag_one_covariance(prime_table_1e4, oracle_prime_flags):
    cov = ss.autocovariance(prime_table_1e4, 10**4, [1])
    flags = oracle_prime_flags[1 : 10**4 + 1].astype(np.float64)
    mean = flags.mean()
    oracle = float(np.sum((flags[:-1] - mean) * (flags[1:] - mean)) / (10**4 - 1))
    assert cov.r_hat[0] == pytest.approx(oracle, abs=1e-12)
    assert -0.016 < cov.r_hat[0] < -0.014


def test_cauchy_schwarz_bound_on_sieved_kinds(mu_table, sf_table, prime_table):
    for table in (mu_table, sf_table, prime_table):
        cov = ss.autocovariance(table, 10**6, [0, 1, 4, 16, 36, 100])
        r0 = cov.r_hat[0]
        assert all(abs(r) <= r0 + 1e-12 for r in cov.r_hat)


def test_autocovariance_lag_validation(prime_table_1e4):
    with pytest.raises(ValueError, match="below n/2"):
        ss.autocovariance(prime_table_1e4, 100, [60])
    with pytest.raises(ValueError, match="strictly increasing"):
        ss.autocovariance(prime_table_1e4, 100, [3, 3])


def test_independence_gap_prime_lag_one(prime_table_1e4, oracle_prime_flags):
    n = 10**4
    gap = ss.independence_gap(prime_table_1e4, n, 1, {1}, {1})
    flags = oracle_prime_flags[1 : n + 1].astype(np.int8)
    assert gap == enumeration_gap(flags, 1, {1}, {1})
    # Only (2, 3) are consecutive primes, so the joint term is 1/(n-1).
    joint = sum(
        1 for k in range(1, n) if oracle_prime_flags[k] and oracle_prime_flags[k + 1]
    )
    assert joint == 1
    assert 0.014 < gap < 0.016


@pytest.mark.parametrize("table", ["mu_table", "pw_table"])
@pytest.mark.parametrize("lag", [1, 63, 64, 65])
def test_independence_gap_three_values_matches_enumeration(request, table, lag):
    """Every nonempty subset pair of a 3-value alphabet, with lags that shift
    the joint counts by part of a word, one word and a word and a bit."""
    n, table = 10**4, request.getfixturevalue(table)
    alphabet = table.kind.alphabet()
    subsets = [set(s) for k in (1, 2, 3) for s in combinations(alphabet, k)]
    values = table.values[:n]
    for b1 in subsets:
        for b2 in subsets:
            assert ss.independence_gap(table, n, lag, b1, b2) == enumeration_gap(values, lag, b1, b2)


def test_independence_gap_full_alphabet_is_zero(mu_table):
    assert ss.independence_gap(mu_table, 10**4, 3, {-1, 0, 1}, {0, 1}) == 0.0
    assert ss.independence_gap(mu_table, 10**4, 3, set(), {0, 1}) == 0.0


def test_independence_gap_validation(mu_table):
    with pytest.raises(ValueError, match="within the alphabet"):
        ss.independence_gap(mu_table, 100, 1, {5}, {1})
    with pytest.raises(ValueError, match="lag"):
        ss.independence_gap(mu_table, 100, 0, {1}, {1})
    with pytest.raises(ValueError, match="empty range"):
        ss.independence_gap(mu_table, 100, 100, {1}, {1})
    vm = ss.sieve_table(ss.VON_MANGOLDT, 1, 100)
    with pytest.raises(ValueError, match="finite-alphabet"):
        ss.independence_gap(vm, 100, 1, {0}, {0})
    stray = ValueTable(ss.SQUAREFREE, 1, 6, np.array([1, 1, 0, 2, 1, 0], dtype=np.int8))
    with pytest.raises(ValueError, match="outside the alphabet"):
        ss.independence_gap(stray, 6, 1, {1}, {1})


def test_alpha_dominates_every_subset_gap(mu_table):
    n, lag = 10**4, 2
    est = ss.alpha_hat(mu_table, n, [lag])
    alphabet = (-1, 0, 1)
    subsets = [{-1}, {0}, {1}, {-1, 0}, {-1, 1}, {0, 1}]
    for b1 in subsets:
        for b2 in subsets:
            gap = ss.independence_gap(mu_table, n, lag, b1, b2)
            assert est.alpha_hat[0] >= gap


def test_alpha_matches_enumeration(sf_table):
    n = 10**5
    est = ss.alpha_hat(sf_table, n, [1, 4])
    vals = sf_table.values[:n]
    for h, got in zip(est.lags, est.alpha_hat):
        best = max(
            enumeration_gap(vals, h, b1, b2)
            for b1 in ({0}, {1})
            for b2 in ({0}, {1})
        )
        assert got == pytest.approx(best, abs=1e-15)


def test_squarefree_gaps_match_local_density_products(sf_table, squarefree_pair_gap):
    """Pair frequencies agree with the exact residue-density products.

    For lag L the density of n with both n and n+L squarefree is
    prod_p (1 - c_p/p^2) where c_p = 1 if p^2 | L else 2.  At lag 1 this is
    0.3226 against a marginal square of 0.3696, so the gap is genuinely
    about 0.047, not small.
    """
    n = 10**6
    for lag in (1, 4, 36):
        gap = ss.independence_gap(sf_table, n, lag, {1}, {1})
        assert gap == pytest.approx(squarefree_pair_gap(lag), abs=2e-3)
    assert ss.independence_gap(sf_table, n, 1, {1}, {1}) > 0.04


def test_alpha_invariant_under_value_relabeling(mu_table, pw_table):
    # The parity weight is a bijective relabeling of the Moebius values
    # (1 -> 2, -1 -> -1, 0 -> 0), so the estimates agree exactly.
    e_mu = ss.alpha_hat(mu_table, 10**4, [1, 2, 3])
    e_pw = ss.alpha_hat(pw_table, 10**4, [1, 2, 3])
    assert e_mu.alpha_hat == e_pw.alpha_hat


def test_alpha_constant_table_is_zero():
    table = ValueTable(ss.SQUAREFREE, 1, 300, np.ones(300, dtype=np.int8))
    est = ss.alpha_hat(table, 300, [1, 5, 10])
    assert est.alpha_hat == (0.0, 0.0, 0.0)


def test_alpha_rejects_unbounded_alphabet():
    vm = ss.sieve_table(ss.VON_MANGOLDT, 1, 100)
    with pytest.raises(ValueError, match="finite-alphabet"):
        ss.alpha_hat(vm, 100, [1])


@pytest.mark.parametrize("stray", [1, 3, -2], ids=["between", "above", "below"])
def test_alpha_rejects_values_outside_the_alphabet(stray):
    vals = np.array([2, -1, 0, 2, -1, 0, 2, 2] * 10, dtype=np.int8)
    vals[17] = stray
    with pytest.raises(ValueError, match="outside the alphabet"):
        ss.alpha_hat(ValueTable(ss.PARITY_WEIGHT, 1, len(vals), vals), len(vals), [1, 2])


def test_alpha_iid_bernoulli_decays_like_sampling_noise():
    for n, bound in ((10**4, 2 / math.sqrt(10**4)), (10**6, 2 / math.sqrt(10**6))):
        rng = np.random.default_rng(np.random.SeedSequence(7))
        vals = (rng.random(n) < 0.5).astype(np.int8)
        est = ss.alpha_hat(ValueTable(ss.SQUAREFREE, 1, n, vals), n, [1, 2, 5, 10])
        assert max(est.alpha_hat) <= bound


def test_dependence_report_packs_each_array_once_and_counts_each_lag_once(monkeypatch, tmp_path):
    """`dependence --report` reads [1, n] once and packs it once, and each
    (lag, range) is counted once.  Every window is counted for each lag below
    window/2: J on [0, n) is then the windows' sum plus the pairs across their
    ends and past the last one.  Only larger lags count [0, n) directly."""
    n = 10**5 + 3
    streamed, packed, counted = [], [], []

    def stream(kind, lo, hi, **kwargs):
        streamed.append((str(kind), lo, hi))
        return iter_segments(kind, lo, hi, **kwargs)

    def value_bits(n, segments, alphabet):
        packed.append(n)
        return _value_bits(n, segments, alphabet)

    def lag_counts(bits, lag, start, stop, counts):
        counted.append((lag, start, stop))
        return _lag_counts(bits, lag, start, stop, counts)

    for module in (sieves, sums):
        monkeypatch.setattr(module, "iter_segments", stream)
    monkeypatch.setattr(mixing, "_value_bits", value_bits)
    monkeypatch.setattr(mixing, "_lag_counts", lag_counts)
    argv = ["dependence", "--kind", "moebius", "--n", str(n), "--lags", "1..20,64,20000",
            "--report", str(tmp_path / "report.json"), "--output", str(tmp_path / "dep.csv")]
    assert cli.run(argv) == 0
    assert streamed == [("moebius", 1, n)]
    assert packed == [n]
    assert len(counted) == len(set(counted))
    window = n // REPORT_WINDOWS
    windows = [(w * window, (w + 1) * window) for w in range(REPORT_WINDOWS)]
    lags = {*range(1, 21), 64, *(h for h in DEFAULT_REPORT_LAGS if h < n / 2)}
    assert all(h < window / 2 for h in lags) and 20000 >= window / 2

    def ranges(h):  # the windows, the pairs across each window's end, and those past the last
        return windows + [(b - h, b + h) for _, b in windows[:-1]] + [(REPORT_WINDOWS * window - h, n)]

    assert set(counted) == {*((h, a, b) for h in lags for a, b in ranges(h)), (20000, 0, n)}


def test_stationarity_moebius_all_verdicts_true(mu_table):
    cps = [int(v) for v in np.unique(np.geomspace(10, 10**6, 40).astype(int))]
    report = ss.stationarity_report(ss.MOEBIUS, 10**6, cps, table=mu_table)
    assert report.mean_verdict and report.covariance_verdict and report.variance_verdict
    assert abs(report.mean_limit_estimate) < 0.001  # M(n)/n near zero
    assert report.bounded and report.value_bound == 1.0


def test_stationarity_prime_covariance_fails(prime_table):
    cps = [10**3, 10**4, 10**5, 10**6]
    report = ss.stationarity_report(ss.PRIME, 10**6, cps, table=prime_table)
    assert not report.covariance_verdict  # prime pair correlations persist
    assert report.variance_verdict


def test_stationarity_von_mangoldt_unbounded():
    vm = ss.sieve_table(ss.VON_MANGOLDT, 1, 10**4)
    report = ss.stationarity_report(ss.VON_MANGOLDT, 10**4, [100, 1000, 10**4], table=vm)
    assert not report.variance_verdict
    assert not report.bounded
    assert report.value_bound == pytest.approx(math.log(9973))  # largest prime <= 1e4


def test_stationarity_thresholds_recorded(mu_table):
    report = ss.stationarity_report(ss.MOEBIUS, 10**5, [10**4, 10**5], table=mu_table)
    assert set(report.thresholds) == {
        "mean_tolerance",
        "covariance_bound",
        "covariance_min_lag",
    }
    assert report.covariance_lags == tuple(h for h in DEFAULT_REPORT_LAGS if h < 10**5 / 2)


def test_stationarity_von_mangoldt_trajectory_matches_accumulate():
    # Above 2^20 the trajectory spans several segments; its Kahan carry must
    # run over the same segments as `accumulate`'s to give the same floats.
    n = 3 * 10**6
    cps = [1000, 1048576, 1048577, 2000000, 3000000]
    vm = ss.sieve_table(ss.VON_MANGOLDT, 1, n)
    report = ss.stationarity_report(ss.VON_MANGOLDT, n, cps, table=vm)
    sums = ss.accumulate(ss.VON_MANGOLDT, n, cps).sums
    assert report.mean_trajectory == tuple(s / c for c, s in zip(cps, sums))


@pytest.mark.parametrize("kind", [ss.MOEBIUS, ss.PARITY_WEIGHT, ss.TWIN_PRIME, ss.LIOUVILLE])
def test_stationarity_trajectory_matches_accumulate_at_word_edges(kind):
    # The finite-alphabet trajectory sums `range_counts` between checkpoints,
    # whose end words are masked at bit c % 64.
    n = 10**5 + 3
    cps = [1, 2, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 99968, n - 1, n]
    report = ss.stationarity_report(kind, n, cps, table=ss.sieve_table(kind, 1, n))
    sums = ss.accumulate(kind, n, cps).sums
    assert report.mean_trajectory == tuple(s / c for c, s in zip(cps, sums))


@settings(max_examples=30, deadline=None, database=None)
@given(kind=st.sampled_from([ss.MOEBIUS, ss.PARITY_WEIGHT, ss.TWIN_PRIME, parse_kind("omega_equals:2")]),
       size=st.integers(1, 5000), data=st.data())
def test_trajectory_from_range_counts_matches_checkpoint_sums(kind, size, data):
    """Bitsets packed from segments of any size, bytes entered at their head
    when a size is not a multiple of 8, give the trajectory the same S(c) as
    `checkpoint_sums` on the same stream, at checkpoints on word edges."""
    n = data.draw(st.integers(200, min(2 * 10**5, 500 * size)), label="n")
    segments = list(iter_segments(kind, 1, n, segment_size=size))
    words = data.draw(st.lists(st.integers(1, n // 64), max_size=6), label="words")
    extra = data.draw(st.lists(st.integers(1, n), max_size=6), label="extra")
    cps = sorted({c for k in words for c in (64 * k - 1, 64 * k, 64 * k + 1) if c <= n} | {*extra, n})
    report = mixing.report_from_pairs(kind, cps, mixing.PairCounts(n, iter(segments), kind.alphabet()))
    expected = sums.checkpoint_sums(kind, cps, iter(segments))
    assert report.mean_trajectory == tuple(s / c for c, s in zip(cps, expected))


MEMORY_N = 2**23


@pytest.fixture(scope="module")
def memory_tables():
    return {kind: ss.sieve_table(kind, 1, MEMORY_N) for kind in (ss.MOEBIUS, ss.VON_MANGOLDT)}


def _report(table):
    return ss.stationarity_report(table.kind, MEMORY_N, [10**3, 10**6, MEMORY_N], table=table)


MU, VM = ss.MOEBIUS, ss.VON_MANGOLDT


@pytest.mark.parametrize(
    "name, call, bytes_per_value",
    [
        ("autocovariance", lambda t: ss.autocovariance(t[MU], MEMORY_N, DEFAULT_REPORT_LAGS), 4),
        ("alpha_hat", lambda t: ss.alpha_hat(t[MU], MEMORY_N, DEFAULT_REPORT_LAGS), 4),
        # Its `PairCounts` build, 0.41 B: the trajectory adds at most one uint8 popcount per
        # word (n/64 B) to the bitsets' 0.25 B.
        ("stationarity_report", lambda t: _report(t[MU]), 0.42),
        ("moments", lambda t: ss.moments(t[MU], MEMORY_N), 2),
        ("empirical_cdf", lambda t: ss.empirical_cdf(t[MU], MEMORY_N), 2),
        # 2/8 B of bitsets (one per moebius value but the last), and one segment's bools at a time.
        ("PairCounts", lambda t: mixing.PairCounts(MEMORY_N, t[MU].segments(MEMORY_N), MU.alphabet()), 0.6),
        # Von Mangoldt reads the float64 table in place: only the 8 B centered copy.
        ("autocovariance_von_mangoldt",
         lambda t: ss.autocovariance(t[VM], MEMORY_N, DEFAULT_REPORT_LAGS), 8.5),
        ("stationarity_report_von_mangoldt", lambda t: _report(t[VM]), 8.5),
    ],
)
def test_finite_alphabet_statistics_peak_memory(memory_tables, name, call, bytes_per_value):
    """Allocations on top of the table stay a few bytes per value.

    Widening the int8 table to int64, or building int64 codes or pair arrays,
    costs 8 to 16 bytes per value; copying the von Mangoldt table costs 8.
    """
    tracemalloc.start()
    try:
        call(memory_tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bytes_per_value * MEMORY_N, f"{name}: {peak / MEMORY_N:.2f} B per value"


def test_report_from_prebuilt_pairs_peak_memory(memory_tables):
    """The report alone, on bitsets built before tracing: its trajectory and
    covariances, which the `PairCounts` build hides in `stationarity_report`.

    Measured at 0.084 B per value (0.67 MiB at 2^23); the bound leaves 19%.
    """
    pairs = mixing.PairCounts(MEMORY_N, memory_tables[MU].segments(MEMORY_N), MU.alphabet())
    tracemalloc.start()
    try:
        mixing.report_from_pairs(MU, [10**3, 10**6, MEMORY_N], pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.10 * MEMORY_N, f"{peak / MEMORY_N:.3f} B per value"


def test_stationarity_checkpoint_validation():
    mu = ss.sieve_table(ss.MOEBIUS, 1, 100)
    with pytest.raises(ValueError, match="strictly increasing"):
        ss.stationarity_report(ss.MOEBIUS, 100, [50, 50], table=mu)
    with pytest.raises(ValueError, match="checkpoint 200 exceeds n_max=100"):
        ss.stationarity_report(ss.MOEBIUS, 100, [50, 200], table=mu)


#: Twin-prime constant C_2 = prod_{p > 2} (1 - 1/(p - 1)^2).
TWIN_PRIME_CONSTANT = 0.66016181584686957


def _singular_series(h: int) -> float:
    """Hardy-Littlewood's S(h): 2 C_2 prod_{p | h, p > 2} (p - 1)/(p - 2) for even h, 0 for odd h."""
    if h % 2:
        return 0.0
    return 2 * TWIN_PRIME_CONSTANT * math.prod((p - 1) / (p - 2) for p, _ in sieves.trial_factors(h) if p > 2)


def test_von_mangoldt_autocovariance_follows_hardy_littlewood():
    """Hardy & Littlewood (Acta Math. 44, 1923) conjecture sum_{k <= x} L(k) L(k + h) ~ S(h) x,
    so with the mean psi(n)/n -> 1 the autocovariance r(h) of von Mangoldt tends to S(h) - 1.

    A conjecture, so checked as a measured value, on `PairCounts` fed by the sparse stream.  At
    n = 10^7, lags 1..20: the largest |r(h) - (S(h) - 1)| over even h measured 0.0071 (h = 2;
    0.0042 at h = 6, at most 0.0035 elsewhere), so the tolerance is 0.01; odd h measured within
    3.1e-4 of -1 (r(h) = -m^2 + o(1), m = 0.99985), so the tolerance there is 0.001.
    """
    n, lags = 10**7, range(1, 21)
    pairs = mixing.PairCounts(n, iter_segments(ss.VON_MANGOLDT, 1, n), None)
    for h, r in zip(lags, pairs.covariances(lags)):
        assert abs(r - (_singular_series(h) - 1)) <= (0.01 if h % 2 == 0 else 0.001), (h, r)
